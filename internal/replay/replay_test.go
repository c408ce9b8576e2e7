package replay

import (
	"context"
	"math"
	"strings"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/qphys"
)

// runEngine executes src for `shots` on a fresh machine and returns the
// stats plus the full per-shot measurement history and end-of-run
// counters.
func runEngine(t *testing.T, cfg core.Config, src string, shots int, mode Mode) (Stats, [][]MD, *core.Machine) {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var hist [][]MD
	st, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: mode, OnShot: func(_ int, md []MD) {
		hist = append(hist, append([]MD(nil), md...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st, hist, m
}

const simpleShot = `
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`

// feedbackShot is the examples/feedback active-reset cycle: the X180 is
// conditioned on the measured result, the canonical unsafe program.
const feedbackShot = `
mov r15, 40000
mov r6, 0
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
Wait 340
beq r7, r6, Verify
Pulse {q0}, X180
Wait 4
Verify:
MPG {q0}, 300
MD {q0}, r8
halt
`

func backends(t *testing.T, f func(t *testing.T, cfg core.Config)) {
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		t.Run(string(b), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Backend = b
			cfg.Seed = 11
			cfg.CollectK = 1
			f(t, cfg)
		})
	}
}

func requireIdentical(t *testing.T, off, auto [][]MD, moff, mauto *core.Machine) {
	t.Helper()
	if len(off) != len(auto) {
		t.Fatalf("shot counts differ: %d vs %d", len(off), len(auto))
	}
	for s := range off {
		if len(off[s]) != len(auto[s]) {
			t.Fatalf("shot %d: MD counts differ: %d vs %d", s, len(off[s]), len(auto[s]))
		}
		for k := range off[s] {
			if off[s][k] != auto[s][k] {
				t.Fatalf("shot %d md %d: %+v vs %+v", s, k, off[s][k], auto[s][k])
			}
		}
	}
	if moff.PulsesPlayed != mauto.PulsesPlayed {
		t.Errorf("PulsesPlayed %d vs %d", moff.PulsesPlayed, mauto.PulsesPlayed)
	}
	if moff.Measurements != mauto.Measurements {
		t.Errorf("Measurements %d vs %d", moff.Measurements, mauto.Measurements)
	}
	aoff, aauto := moff.Collector.Averages(), mauto.Collector.Averages()
	for i := range aoff {
		if aoff[i] != aauto[i] {
			t.Errorf("collector average %d: %v vs %v", i, aoff[i], aauto[i])
		}
	}
}

func TestReplayBitIdenticalToFullSimulation(t *testing.T) {
	// ModeInterp is the deprecated alias of compiled replay: it must
	// still parse (echoed unchanged) and run the compiled engine.
	if m, err := ParseMode("interp"); err != nil || m != ModeInterp {
		t.Fatalf(`ParseMode("interp") = %q, %v; want the alias echoed`, m, err)
	}
	backends(t, func(t *testing.T, cfg core.Config) {
		const shots = 60
		stOff, off, moff := runEngine(t, cfg, simpleShot, shots, ModeOff)
		if stOff.Replayed != 0 {
			t.Errorf("ModeOff replayed %d shots", stOff.Replayed)
		}
		for _, mode := range []Mode{ModeAuto, ModeCompiled, ModeInterp} {
			st, got, m := runEngine(t, cfg, simpleShot, shots, mode)
			if !st.Safe || !st.Compiled || st.Replayed != shots-detectShots {
				t.Errorf("%s stats = %+v, want compiled with %d replayed", mode, st, shots-detectShots)
			}
			requireIdentical(t, off, got, moff, m)
		}
	})
}

// TestCompiledBitIdenticalToInterpreted is the engine-level A/B of the
// schedule compiler on a CZ + multi-measure program: compiled replay
// must reproduce the full pipeline — the reference interpreter of the
// program — bit for bit on both backends.
func TestCompiledBitIdenticalToInterpreted(t *testing.T) {
	src := `
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0, q1}, CZ
Wait 4
Pulse {q1}, Y180
Wait 4
MPG {q0}, 300
MD {q0}, r7
MPG {q1}, 300
MD {q1}, r8
halt
`
	backends(t, func(t *testing.T, cfg core.Config) {
		cfg.NumQubits = 2
		cfg.CollectK = 2
		const shots = 50
		stO, off, mo := runEngine(t, cfg, src, shots, ModeOff)
		stC, comp, mc := runEngine(t, cfg, src, shots, ModeCompiled)
		if stO.Safe || stO.Replayed != 0 {
			t.Fatalf("off stats = %+v", stO)
		}
		if !stC.Safe || !stC.Compiled {
			t.Fatalf("compiled stats = %+v", stC)
		}
		requireIdentical(t, off, comp, mo, mc)
	})
}

// TestNoiselessFusionKeepsResultsIdentical covers decoherence disabled,
// where no channel separates same-qubit pulses: the configuration in
// which merging adjacent unitaries into one matrix would change
// rounding. Compiled replay applies every recorded unitary as its own
// step, so measured results must be identical to the full pipeline (the
// state-level check is TestCompiledReplayStateBitExact).
func TestNoiselessFusionKeepsResultsIdentical(t *testing.T) {
	src := `
mov r15, 400
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y90
Wait 4
Pulse {q0}, Xm90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		t.Run(string(b), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Backend = b
			cfg.Qubit = []qphys.QubitParams{{}} // decoherence disabled
			cfg.Seed = 13
			cfg.CollectK = 1
			const shots = 50
			_, off, moff := runEngine(t, cfg, src, shots, ModeOff)
			st, got, m := runEngine(t, cfg, src, shots, ModeCompiled)
			if !st.Safe {
				t.Fatalf("noiseless pulse program must replay: %+v", st)
			}
			requireIdentical(t, off, got, moff, m)
		})
	}
}

// TestFeedbackFallbackUnderResetStatePooling runs the active-reset
// feedback program on a pooled machine (ResetState after serving an
// unrelated program) across every replay mode: the fallback must stay
// bit-identical to a fresh machine in every combination.
func TestFeedbackFallbackUnderResetStatePooling(t *testing.T) {
	backends(t, func(t *testing.T, cfg core.Config) {
		cfg.CollectK = 2
		const shots = 30
		const seed = 77
		fresh := func(mode Mode) (Stats, [][]MD, *core.Machine) {
			c := cfg
			c.Seed = seed
			return runEngine(t, c, feedbackShot, shots, mode)
		}
		_, want, mwant := fresh(ModeOff)
		for _, mode := range []Mode{ModeOff, ModeCompiled, ModeAuto} {
			// Pooled machine: constructed under another seed, used for an
			// unrelated replay-safe program, then reset — it must behave
			// exactly like a fresh machine under the target seed.
			c := cfg
			c.Seed = 5
			m, err := core.New(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(context.Background(), m, asm.MustAssemble(simpleShot), Options{Shots: 10, Mode: mode}); err != nil {
				t.Fatal(err)
			}
			m.ResetState(seed)
			prog := asm.MustAssemble(feedbackShot)
			var hist [][]MD
			st, err := Run(context.Background(), m, prog, Options{Shots: shots, Mode: mode, OnShot: func(_ int, md []MD) {
				hist = append(hist, append([]MD(nil), md...))
			}})
			if err != nil {
				t.Fatal(err)
			}
			if st.Safe || st.Replayed != 0 {
				t.Fatalf("%s: feedback program must not replay on a pooled machine: %+v", mode, st)
			}
			requireIdentical(t, want, hist, mwant, m)
		}
	})
}

func TestFeedbackProgramFallsBack(t *testing.T) {
	backends(t, func(t *testing.T, cfg core.Config) {
		cfg.CollectK = 2
		const shots = 40
		_, off, moff := runEngine(t, cfg, feedbackShot, shots, ModeOff)
		stAuto, auto, mauto := runEngine(t, cfg, feedbackShot, shots, ModeAuto)
		if stAuto.Safe || stAuto.Replayed != 0 {
			t.Fatalf("feedback program must not replay: %+v", stAuto)
		}
		if !strings.Contains(stAuto.Reason, "measurement result") {
			t.Errorf("reason = %q, want measurement-consumption detection", stAuto.Reason)
		}
		requireIdentical(t, off, auto, moff, mauto)
		// And the program must actually have performed active reset: the
		// verify measurement reads |1⟩ far less often than the first.
		var first, verify int
		for _, md := range auto {
			first += md[0].Result
			verify += md[1].Result
		}
		if verify*3 >= first {
			t.Errorf("active reset ineffective under fallback: first=%d verify=%d", first, verify)
		}
	})
}

func TestCrossShotRegisterStateFallsBack(t *testing.T) {
	// r3 persists across shots; after two shots the branch flips and the
	// pulse schedule changes. Schedule comparison alone (shots 1 vs 2)
	// would not catch a flip at shot 5 — the cross-shot taint does.
	src := `
mov r15, 40000
mov r4, 2
addi r3, r3, 1
QNopReg r15
blt r4, r3, Skip
Pulse {q0}, X180
Wait 4
Skip:
MPG {q0}, 300
MD {q0}, r7
halt
`
	backends(t, func(t *testing.T, cfg core.Config) {
		const shots = 30
		_, off, moff := runEngine(t, cfg, src, shots, ModeOff)
		stAuto, auto, mauto := runEngine(t, cfg, src, shots, ModeAuto)
		if stAuto.Safe || stAuto.Replayed != 0 {
			t.Fatalf("cross-shot counter program must not replay: %+v", stAuto)
		}
		if !strings.Contains(stAuto.Reason, "cross-shot") {
			t.Errorf("reason = %q, want cross-shot detection", stAuto.Reason)
		}
		requireIdentical(t, off, auto, moff, mauto)
	})
}

func TestShotPeriodMisalignmentFallsBack(t *testing.T) {
	// Wait 5 instead of Wait 4 makes the shot period a non-multiple of
	// the 4-cycle SSB period, so the demodulated rotation drifts from
	// shot to shot: the recorded schedules of shots 1 and 2 differ and
	// the engine must fall back (still bit-identical).
	src := `
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 5
MPG {q0}, 300
MD {q0}, r7
halt
`
	backends(t, func(t *testing.T, cfg core.Config) {
		const shots = 24
		_, off, moff := runEngine(t, cfg, src, shots, ModeOff)
		stAuto, auto, mauto := runEngine(t, cfg, src, shots, ModeAuto)
		if stAuto.Safe || stAuto.Replayed != 0 {
			t.Fatalf("misaligned program must not replay: %+v", stAuto)
		}
		if !strings.Contains(stAuto.Reason, "shot-invariant") {
			t.Errorf("reason = %q, want schedule-invariance detection", stAuto.Reason)
		}
		requireIdentical(t, off, auto, moff, mauto)
	})
}

func TestTooFewShotsRunFull(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CollectK = 1
	st, hist, _ := runEngine(t, cfg, simpleShot, detectShots, ModeAuto)
	if st.Safe || st.Replayed != 0 || len(hist) != detectShots {
		t.Fatalf("stats = %+v with %d shots", st, len(hist))
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog := asm.MustAssemble("halt\n")
	if _, err := Run(context.Background(), m, prog, Options{Shots: 0}); err == nil {
		t.Error("Shots=0 must fail")
	}
	if _, err := Run(context.Background(), m, prog, Options{Shots: 1, Mode: "sometimes"}); err == nil {
		t.Error("unknown mode must fail")
	}
}

func TestReplayMultiQubitCZSchedule(t *testing.T) {
	// Two-qubit flux pulses and multi-qubit measurement land in the
	// schedule and replay bit-identically.
	src := `
mov r15, 40000
QNopReg r15
Pulse {q0}, X180
Wait 4
Pulse {q0, q1}, CZ
Wait 4
MPG {q0}, 300
MD {q0}, r7
MPG {q1}, 300
MD {q1}, r8
halt
`
	backends(t, func(t *testing.T, cfg core.Config) {
		cfg.NumQubits = 2
		cfg.CollectK = 2
		const shots = 30
		stAuto, auto, mauto := runEngine(t, cfg, src, shots, ModeAuto)
		if !stAuto.Safe {
			t.Fatalf("CZ program should replay: %+v", stAuto)
		}
		_, off, moff := runEngine(t, cfg, src, shots, ModeOff)
		requireIdentical(t, off, auto, moff, mauto)
	})
}

// stateBits snapshots the raw IEEE bits of the machine's quantum state
// (Trajectory.Psi or Density.Rho), so a comparison sees every rounding
// difference, not just those that surface in a measured result.
func stateBits(t *testing.T, s qphys.State) []uint64 {
	t.Helper()
	var amps []complex128
	switch st := s.(type) {
	case *qphys.Trajectory:
		amps = st.Psi
	case *qphys.Density:
		amps = st.Rho.Data
	default:
		t.Fatalf("unexpected state backend %T", s)
	}
	bits := make([]uint64, 0, 2*len(amps))
	for _, a := range amps {
		bits = append(bits, math.Float64bits(real(a)), math.Float64bits(imag(a)))
	}
	return bits
}

// TestCompiledReplayStateBitExact compares the post-shot quantum state,
// bit for bit, between the full pipeline and compiled replay after every
// shot. The two configurations are the ones where merging adjacent
// same-qubit unitaries into one matrix would change rounding: a qubit
// with decoherence off and back-to-back pulses, and a decoherent qubit
// whose detuning rotation directly follows each pulse.
func TestCompiledReplayStateBitExact(t *testing.T) {
	// The pulses after the measurement leave the post-shot state
	// unprojected, so rounding differences cannot be erased by collapse.
	src := `
mov r15, 400
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y90
Wait 4
MPG {q0}, 300
MD {q0}, r7
Wait 340
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y90
Wait 4
Pulse {q0}, Xm90
Wait 4
halt
`
	noiseless := qphys.QubitParams{}
	detuned := qphys.DefaultQubitParams()
	detuned.FreqDetuningHz = 1.3e5
	configs := []struct {
		name string
		q    qphys.QubitParams
	}{{"decoherence-off", noiseless}, {"decoherent-detuned", detuned}}
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for _, c := range configs {
			t.Run(string(b)+"/"+c.name, func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Backend = b
				cfg.Qubit = []qphys.QubitParams{c.q}
				cfg.Seed = 21
				cfg.CollectK = 1
				const shots = 200
				states := func(mode Mode) (Stats, [][]uint64) {
					m, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var out [][]uint64
					st, err := Run(context.Background(), m, asm.MustAssemble(src), Options{Shots: shots, Mode: mode, OnShot: func(int, []MD) {
						out = append(out, stateBits(t, m.State))
					}})
					if err != nil {
						t.Fatal(err)
					}
					return st, out
				}
				_, want := states(ModeOff)
				st, got := states(ModeCompiled)
				if !st.Safe || !st.Compiled || st.Replayed != shots-detectShots {
					t.Fatalf("compiled stats = %+v, want %d compiled replayed shots", st, shots-detectShots)
				}
				differ := 0
				for s := range want {
					for i := range want[s] {
						if want[s][i] != got[s][i] {
							differ++
							break
						}
					}
				}
				if differ != 0 {
					t.Errorf("post-shot state differs bit-wise on %d/%d shots", differ, shots)
				}
			})
		}
	}
}
