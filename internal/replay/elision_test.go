package replay

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/conformance"
	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

// laneRun is what one lane of an engine run leaves behind: its
// measurement stream, the state bits after each lead shot, and the
// machine.
type laneRun struct {
	hist [][]MD
	lead [][]uint64
	m    *core.Machine
}

// watch returns an OnShot callback that fills r for a lane numbering
// its shots from base: every shot's measurements and, for the lead
// window, the post-shot state bits (the lockstep executor holds later
// shots' states in its batch).
func watch(t *testing.T, r *laneRun, base int) func(int, []MD) {
	return func(shot int, md []MD) {
		r.hist = append(r.hist, slices.Clone(md))
		if shot-base < detectShots {
			r.lead = append(r.lead, stateBits(t, r.m.State))
		}
	}
}

// requireSameRun demands that got reproduces want bit for bit:
// measurement streams, post-shot state bits of the lead window, the
// final state, PulsesPlayed, Measurements and the collector sums.
func requireSameRun(t *testing.T, want, got *laneRun) {
	t.Helper()
	requireIdentical(t, want.hist, got.hist, want.m, got.m)
	if !slices.EqualFunc(want.lead, got.lead, slices.Equal[[]uint64]) {
		t.Fatal("post-shot state bits of the lead window differ")
	}
	if !slices.Equal(stateBits(t, want.m.State), stateBits(t, got.m.State)) {
		t.Fatal("final state bits differ")
	}
	if !slices.Equal(want.m.Collector.Sums(), got.m.Collector.Sums()) {
		t.Fatalf("collector sums %v, reference %v", got.m.Collector.Sums(), want.m.Collector.Sums())
	}
}

// safeProgram is a replay-safe program and its register size.
type safeProgram struct {
	prog *isa.Program
	nq   int
}

// safePrograms returns the d=3 repetition-code shot, whose cold shot
// differs from the steady one in a window of its middle, and
// conformance-generated replay-safe programs.
func safePrograms() []safeProgram {
	progs := []safeProgram{{asm.MustAssemble(repCodeShotSrc), 5}}
	for _, seed := range []int64{1, 2, 5} {
		rng := rand.New(rand.NewSource(seed))
		nq := 2 + rng.Intn(2)
		progs = append(progs, safeProgram{asm.MustAssemble(conformance.Generate(rng, conformance.Safe, nq, 8+rng.Intn(8))), nq})
	}
	return progs
}

// elisionConfig is the noisy machine the elision tests run sp on.
func elisionConfig(b core.Backend, sp safeProgram, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Backend = b
	cfg.NumQubits = sp.nq
	cfg.CollectK = 2
	cfg.Seed = seed
	return cfg
}

// reference runs prog on a fresh machine in ModeOff, after custom.
func reference(t *testing.T, cfg core.Config, prog *isa.Program, shots int, custom func(*core.Machine)) *laneRun {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if custom != nil {
		custom(m)
	}
	r := &laneRun{m: m}
	if _, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: ModeOff, OnShot: watch(t, r, 0)}); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLeadElisionBitExact pins the lead-window skip against the full
// pipeline. Lanes are warm (the machine already ran the program and was
// reset, so it replays shots 0–2 from its memo) or cold (a fresh
// machine), mixed within one RunBatch or all cold; every lane must
// reproduce a ModeOff run on a fresh machine bit for bit and report the
// stats of a pipeline lead. The lanes' machines are lead-equivalent
// (one config, seeds apart), so the group runs exactly one pipeline
// lead when every lane is cold — its first lane's, three full-pipeline
// shots in all — and none when a lane is warm: every other lane
// replays its lead from the proven entry (a skipped lead executes no
// instruction).
func TestLeadElisionBitExact(t *testing.T) {
	progs := safePrograms()
	groups := []struct {
		name string
		nl   int
		cold bool
	}{{"lanes", 1, false}, {"lanes", 2, false}, {"lanes", 8, false}, {"cold", 2, true}, {"cold", 3, true}, {"cold", 8, true}}
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for pi, sp := range progs {
			prog := sp.prog
			for _, shots := range []int{4, 5, 300} {
				// Lane j runs at seed 50+j in every group, so the groups
				// share its ModeOff reference.
				refs := map[int]*laneRun{}
				for _, g := range groups {
					if b == core.BackendDensity && !g.cold && g.nl > 2 {
						// Density lanes never batch: two lanes already mix a
						// warm and a cold one.
						continue
					}
					t.Run(fmt.Sprintf("%s/prog%d/%s%d/shots%d", b, pi, g.name, g.nl, shots), func(t *testing.T) {
						lanes := make([]BatchLane, g.nl)
						runs := make([]*laneRun, g.nl)
						warm := func(j int) bool { return !g.cold && j%3 != 1 }
						for j := range lanes {
							cfg := elisionConfig(b, sp, int64(50+j))
							m, err := core.New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if warm(j) {
								if _, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: ModeAuto}); err != nil {
									t.Fatal(err)
								}
								m.ResetState(cfg.Seed)
							}
							runs[j] = &laneRun{m: m}
							lanes[j] = BatchLane{M: m, BaseShot: 1000 * j, OnShot: watch(t, runs[j], 1000*j)}
						}
						stats, err := RunBatch(context.Background(), prog, lanes, shots, ModeAuto)
						if err != nil {
							t.Fatal(err)
						}
						var steps, perShot uint64
						for j := range lanes {
							// Only an all-cold group's first lane proves the
							// program; every other lane takes its entry.
							if got, want := lanes[j].M.Controller.Steps == 0, !g.cold || j > 0; got != want {
								t.Fatalf("lane %d (warm %v): lead skipped = %v, want %v", j, warm(j), got, want)
							}
							steps += lanes[j].M.Controller.Steps
							if st := stats[j]; !st.Safe || !st.Compiled || st.Lead != detectShots || st.Replayed != shots-detectShots {
								t.Fatalf("lane %d stats %+v, want a compiled run with a %d-shot lead", j, st, detectShots)
							}
							ref := refs[j]
							if ref == nil {
								ref = reference(t, elisionConfig(b, sp, int64(50+j)), prog, shots, nil)
								refs[j] = ref
							}
							requireSameRun(t, ref, runs[j])
							perShot = ref.m.Controller.Steps / uint64(shots)
						}
						if g.cold && steps != detectShots*perShot {
							t.Fatalf("the group executed %d instructions, want one pipeline lead of %d shots × %d", steps, detectShots, perShot)
						}
					})
				}
			}
		}
	}
}

// TestLeadElisionNeedsProvenResetPoint lists what keeps a warm machine
// on the pipeline lead: every invalidation point of the memo, an event
// timeline, a preset register, a machine not reset since its last run,
// a run too short to replay, and ModeOff. Each case must run the
// pipeline and, where the reference is well defined, still reproduce a
// fresh ModeOff run with the same customization. Its Sibling cases list
// what keeps a cold lane from taking the entry its batch's first lane
// proved: a customization of either machine since core.New, configs
// that differ beyond Seed, a prover that is unsafe, runs detectShots
// shots or fewer, or is not at its reset point, and an event timeline.
func TestLeadElisionNeedsProvenResetPoint(t *testing.T) {
	sp := safePrograms()[1]
	prog := sp.prog
	const shots = 40
	reupload := func(m *core.Machine) {
		w, name, _ := m.CTPG[0].Lookup(2)
		if err := m.UploadPulse(0, 2, name, w); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		trace  bool
		shots  int
		mode   Mode
		custom func(*core.Machine) // applied after the reset (and to the reference)
	}{
		{name: "UploadPulse", custom: reupload},
		{name: "SetQubitParams", custom: func(m *core.Machine) {
			if err := m.SetQubitParams(1, m.Cfg.Qubit[1]); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "DefinePrimitive", custom: func(m *core.Machine) { m.UOp.DefinePrimitive("X90", awg.Codeword(2)) }},
		{name: "Define", custom: func(m *core.Machine) {
			seq, _ := m.UOp.Lookup("Y90")
			if err := m.UOp.Define("Y90", seq); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "TraceEvents", trace: true},
		{name: "RegisterPreset", custom: func(m *core.Machine) { m.Controller.Regs[5] = 7 }},
		{name: "ThreeShots", shots: detectShots},
		{name: "ModeOff", mode: ModeOff},
	}
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for _, c := range cases {
			t.Run(string(b)+"/"+c.name, func(t *testing.T) {
				cfg := elisionConfig(b, sp, 7)
				cfg.TraceEvents = c.trace
				n := shots
				if c.shots != 0 {
					n = c.shots
				}
				mode := ModeAuto
				if c.mode != "" {
					mode = c.mode
				}
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Two warm-up runs: the second skips the lead (save under
				// a timeline), which proves the machine warm before the
				// case applies.
				for i := range 2 {
					if _, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: ModeAuto}); err != nil {
						t.Fatal(err)
					}
					if i == 1 && (m.Controller.Steps == 0) == c.trace {
						t.Fatalf("warm-up run skipped the lead: %v", m.Controller.Steps == 0)
					}
					m.ResetState(cfg.Seed)
				}
				if c.custom != nil {
					c.custom(m)
				}
				got := &laneRun{m: m}
				if _, err := Run(context.Background(), m, prog, Options{Shots: n, Mode: mode, OnShot: watch(t, got, 0)}); err != nil {
					t.Fatal(err)
				}
				if m.Controller.Steps == 0 {
					t.Fatal("the lead skipped the pipeline")
				}
				requireSameRun(t, reference(t, cfg, prog, n, c.custom), got)
			})
		}
	}

	// Siblings: lane 0 (the would-be prover) and lane 1 start cold in
	// one RunBatch. Lane 1 may replay its lead from lane 0's entry only
	// in the control case.
	siblings := []struct {
		name            string
		skip            bool
		src             string
		trace           bool
		proverShots     int
		cfg             func(*core.Config) // lane 1's config
		prover, sibling func(*core.Machine)
	}{
		{name: "Control", skip: true},
		{name: "SiblingUploadPulse", sibling: reupload},
		{name: "SiblingSetQubitParams", sibling: func(m *core.Machine) {
			if err := m.SetQubitParams(0, m.Cfg.Qubit[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "SiblingDefine", sibling: func(m *core.Machine) {
			seq, _ := m.UOp.Lookup("X90")
			if err := m.UOp.Define("X90", seq); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "ProverDefinePrimitive", prover: func(m *core.Machine) { m.UOp.DefinePrimitive("X90", awg.Codeword(2)) }},
		{name: "ConfigAmplitudeError", cfg: func(c *core.Config) { c.AmplitudeError = 1e-3 }},
		{name: "ConfigQubit", cfg: func(c *core.Config) {
			c.Qubit = make([]qphys.QubitParams, c.NumQubits)
			for q := range c.Qubit {
				c.Qubit[q] = qphys.DefaultQubitParams()
			}
			c.Qubit[1].T2 *= 0.9
		}},
		{name: "ProverUnsafe", src: feedbackShot},
		{name: "ProverThreeShots", proverShots: detectShots},
		{name: "ProverNotAtResetPoint", prover: func(m *core.Machine) { m.Controller.Regs[5] = 7 }},
		{name: "TraceEvents", trace: true},
	}
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for _, c := range siblings {
			t.Run(string(b)+"/Sibling/"+c.name, func(t *testing.T) {
				prog := sp.prog
				if c.src != "" {
					prog = asm.MustAssemble(c.src)
				}
				cfgs := [2]core.Config{elisionConfig(b, sp, 7), elisionConfig(b, sp, 8)}
				for j := range cfgs {
					cfgs[j].TraceEvents = c.trace
				}
				if c.cfg != nil {
					c.cfg(&cfgs[1])
				}
				custom := [2]func(*core.Machine){c.prover, c.sibling}
				counts := [2]int{shots, shots}
				if c.proverShots != 0 {
					counts[0] = c.proverShots
				}
				lanes := make([]BatchLane, 2)
				runs := make([]*laneRun, 2)
				for j := range lanes {
					m, err := core.New(cfgs[j])
					if err != nil {
						t.Fatal(err)
					}
					if custom[j] != nil {
						custom[j](m)
					}
					runs[j] = &laneRun{m: m}
					lanes[j] = BatchLane{M: m, Shots: counts[j], OnShot: watch(t, runs[j], 0)}
				}
				if _, err := RunBatch(context.Background(), prog, lanes, shots, ModeAuto); err != nil {
					t.Fatal(err)
				}
				if lanes[0].M.Controller.Steps == 0 {
					t.Fatal("the first lane skipped its lead")
				}
				if got := lanes[1].M.Controller.Steps == 0; got != c.skip {
					t.Fatalf("the sibling's lead skipped = %v, want %v", got, c.skip)
				}
				for j := range lanes {
					requireSameRun(t, reference(t, cfgs[j], prog, counts[j], custom[j]), runs[j])
				}
			})
		}
	}

	// A machine that skipped its lead and runs again without a reset
	// is not at a reset point: the second run takes the pipeline.
	t.Run("NoReset", func(t *testing.T) {
		cfg := elisionConfig(core.BackendTrajectory, sp, 7)
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: ModeAuto}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		m.ResetState(cfg.Seed)
		run()
		if m.Controller.Steps != 0 {
			t.Fatal("the run after a reset did not skip the lead")
		}
		run()
		if m.Controller.Steps == 0 {
			t.Fatal("a run without a reset skipped the pipeline lead")
		}
	})
}

// TestLeadElisionSharesGroupEntry pins the memo's shape: in one
// lockstep run on fresh lead-equivalent machines only the first lane
// runs the pipeline lead, the others replay theirs from its entry, and
// afterwards every lane holds the group's one entry, proven warm, so
// each machine skips its lead at its next reset.
func TestLeadElisionSharesGroupEntry(t *testing.T) {
	sp := safePrograms()[0]
	prog := sp.prog
	lanes := make([]BatchLane, 4)
	for j := range lanes {
		m, err := core.New(elisionConfig(core.BackendTrajectory, sp, int64(j)))
		if err != nil {
			t.Fatal(err)
		}
		lanes[j] = BatchLane{M: m}
	}
	if _, err := RunBatch(context.Background(), prog, lanes, 20, ModeAuto); err != nil {
		t.Fatal(err)
	}
	for j, ln := range lanes {
		if got := ln.M.Controller.Steps != 0; got != (j == 0) {
			t.Fatalf("lane %d ran the pipeline lead = %v, want only lane 0's", j, got)
		}
	}
	e := lanes[0].M.ReplayCache.(memo)[prog].e
	if e == nil || e.cold == nil {
		t.Fatal("no cold shot memoized")
	}
	for j, ln := range lanes {
		s := ln.M.ReplayCache.(memo)[prog]
		if s.e != e || !s.warm {
			t.Fatalf("lane %d holds %+v, want the group's warm entry", j, s)
		}
		ln.M.ResetState(int64(j))
	}
	if _, err := RunBatch(context.Background(), prog, lanes, 20, ModeAuto); err != nil {
		t.Fatal(err)
	}
	for j, ln := range lanes {
		if ln.M.Controller.Steps != 0 {
			t.Fatalf("lane %d ran its lead through the pipeline", j)
		}
	}
}
