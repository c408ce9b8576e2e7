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
// machine), mixed within one RunBatch; every lane must reproduce a
// ModeOff run on a fresh machine bit for bit, report the stats of a
// pipeline lead, and have skipped the pipeline exactly when warm (a
// skipped lead executes no instruction).
func TestLeadElisionBitExact(t *testing.T) {
	progs := safePrograms()
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for pi, sp := range progs {
			prog := sp.prog
			for _, nl := range []int{1, 2, 8} {
				if b == core.BackendDensity && nl > 2 {
					// Density lanes never batch: two lanes already mix a
					// warm and a cold one.
					continue
				}
				for _, shots := range []int{4, 5, 300} {
					t.Run(fmt.Sprintf("%s/prog%d/lanes%d/shots%d", b, pi, nl, shots), func(t *testing.T) {
						lanes := make([]BatchLane, nl)
						runs := make([]*laneRun, nl)
						warm := func(j int) bool { return j%3 != 1 }
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
						for j := range lanes {
							if got := lanes[j].M.Controller.Steps == 0; got != warm(j) {
								t.Fatalf("lane %d (warm %v): lead skipped = %v", j, warm(j), got)
							}
							if st := stats[j]; !st.Safe || !st.Compiled || st.Lead != detectShots || st.Replayed != shots-detectShots {
								t.Fatalf("lane %d stats %+v, want a compiled run with a %d-shot lead", j, st, detectShots)
							}
							requireSameRun(t, reference(t, elisionConfig(b, sp, int64(50+j)), prog, shots, nil), runs[j])
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
// fresh ModeOff run with the same customization.
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

// TestLeadElisionSharesGroupEntry pins the memo's shape: after one
// lockstep run on fresh machines, every lane holds the group's one
// entry, proven warm, so each machine skips its lead at its next reset.
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
