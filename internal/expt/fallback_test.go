package expt

import (
	"context"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// Fallback-path coverage: feedback programs — the corrected repetition
// code here, the phase code's active reset and the examples/feedback
// cycle in the package-level replay tests — must stay bit-identical
// across every -replay mode AND under machine pooling via ResetState,
// because the sweep engine serves them from pooled machines with the
// compiled engine enabled by default.

// runShots executes the program for `shots` on m and returns the full
// measurement history plus the engine stats.
func runShots(t *testing.T, m *core.Machine, src string, shots int, mode replay.Mode) (replay.Stats, [][]replay.MD) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var hist [][]replay.MD
	st, err := replay.Run(context.Background(), m, prog, replay.Options{Shots: shots, Mode: mode, OnShot: func(_ int, md []replay.MD) {
		hist = append(hist, append([]replay.MD(nil), md...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	return st, hist
}

func requireSameHistory(t *testing.T, label string, want, got [][]replay.MD) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: shot counts differ: %d vs %d", label, len(want), len(got))
	}
	for s := range want {
		if len(want[s]) != len(got[s]) {
			t.Fatalf("%s: shot %d MD counts differ", label, s)
		}
		for k := range want[s] {
			if want[s][k] != got[s][k] {
				t.Fatalf("%s: shot %d md %d: %+v vs %+v", label, s, k, want[s][k], got[s][k])
			}
		}
	}
}

// TestCorrectedRepCodeFallbackAcrossModesAndPooling runs the
// feedback-corrected repetition-code shot program — whose pulse schedule
// depends on the measured syndromes, the canonical replay-unsafe case —
// on fresh and on pooled (ResetState after unrelated work) machines
// under every replay mode. All six combinations must produce the same
// measurement stream bit for bit, and none may replay.
func TestCorrectedRepCodeFallbackAcrossModesAndPooling(t *testing.T) {
	p := DefaultRepCodeParams()
	src := RepCodeShotProgram(p, true)
	const shots, seed = 25, 42
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		cfg := core.DefaultConfig()
		cfg.Backend = backend
		cfg.NumQubits = 5
		for len(cfg.Qubit) < 5 {
			cfg.Qubit = append(cfg.Qubit, qphys.DefaultQubitParams())
		}
		cfg.Seed = seed
		mRef, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, want := runShots(t, mRef, src, shots, replay.ModeOff)
		for _, mode := range []replay.Mode{replay.ModeOff, replay.ModeCompiled, replay.ModeAuto} {
			// Fresh machine.
			mf, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, got := runShots(t, mf, src, shots, mode)
			if st.Safe {
				t.Fatalf("%s/%s: corrected repcode must fall back: %+v", backend, mode, st)
			}
			requireSameHistory(t, string(backend)+"/"+string(mode)+"/fresh", want, got)
			// Pooled machine: other seed, unrelated replay-safe work, then
			// ResetState to the reference seed.
			cp := cfg
			cp.Seed = seed + 99
			mp, err := core.New(cp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replay.Run(context.Background(), mp, asm.MustAssemble(RepCodeShotProgram(p, false)), replay.Options{Shots: 8, Mode: mode}); err != nil {
				t.Fatal(err)
			}
			mp.ResetState(seed)
			stP, gotP := runShots(t, mp, src, shots, mode)
			if stP.Safe {
				t.Fatalf("%s/%s: corrected repcode must fall back on a pooled machine: %+v", backend, mode, stP)
			}
			requireSameHistory(t, string(backend)+"/"+string(mode)+"/pooled", want, gotP)
		}
	}
}

// TestPhaseCodeActiveResetAcrossAllModes pins the phase code — whose
// active-reset prologue consumes the previous shot's readout registers —
// to identical results across every mode, including the compiled engine.
func TestPhaseCodeActiveResetAcrossAllModes(t *testing.T) {
	p := DefaultRepCodeParams()
	p.Rounds = 60
	p.WaitCycles = 800
	var want *PhaseCodeResult
	for _, mode := range []replay.Mode{replay.ModeOff, replay.ModeCompiled} {
		cfg := core.DefaultConfig()
		for i := 0; i < 5; i++ {
			cfg.Qubit = append(cfg.Qubit, DephasingQubit(20e-6))
		}
		q := p
		q.Replay = mode
		res, err := NewEnv().RunPhaseCode(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if want.Bare != res.Bare || want.Protected != res.Protected {
			t.Fatalf("%s: rates differ: %+v vs %+v", mode, want, res)
		}
	}
}
