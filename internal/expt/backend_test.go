package expt

import (
	"context"
	"math"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// Cross-backend agreement: the trajectory backend samples one Kraus
// operator per channel application, so per-shot results differ from the
// exact density backend, but experiment means must converge to the same
// physics within sampling tolerance. Every test runs at a fixed seed, so
// failures are reproducible, and the tolerances carry ≥4σ margin at the
// configured round counts.

func TestT1BackendsAgree(t *testing.T) {
	p := DefaultSweepParams()
	p.Rounds = 600 // cheap now that shots replay; tightens both fits
	run := func(b core.Backend) *T1Result {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Backend = b
		res, err := NewEnv().RunT1(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		return res
	}
	den := run(core.BackendDensity)
	trj := run(core.BackendTrajectory)
	if den.Fit.Tau <= 0 || trj.Fit.Tau <= 0 {
		t.Fatalf("non-positive fitted T1: density %v, trajectory %v", den.Fit.Tau, trj.Fit.Tau)
	}
	if r := trj.Fit.Tau / den.Fit.Tau; r < 0.7 || r > 1.4 {
		t.Errorf("fitted T1 disagrees: density %v s, trajectory %v s", den.Fit.Tau, trj.Fit.Tau)
	}
	var sum float64
	for i := range den.Excited {
		sum += math.Abs(den.Excited[i] - trj.Excited[i])
	}
	if mean := sum / float64(len(den.Excited)); mean > 0.08 {
		t.Errorf("mean |density − trajectory| population gap = %v, want < 0.08", mean)
	}
}

func TestRamseyBackendsAgree(t *testing.T) {
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 100e3
	p := DefaultSweepParams()
	p.Rounds = 150
	p.DelaysCycles = nil
	for k := 0; k < 40; k++ {
		p.DelaysCycles = append(p.DelaysCycles, k*200)
	}
	run := func(b core.Backend) *RamseyResult {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Backend = b
		cfg.Qubit = []qphys.QubitParams{qp}
		res, err := NewEnv().RunRamsey(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		return res
	}
	den := run(core.BackendDensity)
	trj := run(core.BackendTrajectory)
	// Both backends must resolve the 100 kHz detuning fringe.
	for _, res := range []*RamseyResult{den, trj} {
		if res.Fit.Freq < 80e3 || res.Fit.Freq > 120e3 {
			t.Errorf("fitted fringe %v Hz, want ≈ 100 kHz", res.Fit.Freq)
		}
	}
	if r := trj.Fit.Freq / den.Fit.Freq; r < 0.85 || r > 1.18 {
		t.Errorf("fringe frequency disagrees: density %v, trajectory %v", den.Fit.Freq, trj.Fit.Freq)
	}
}

func TestAllXYBackendsAgree(t *testing.T) {
	p := DefaultAllXYParams()
	p.Rounds = 150
	run := func(b core.Backend) *AllXYResult {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Backend = b
		res, err := NewEnv().RunAllXY(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		return res
	}
	den := run(core.BackendDensity)
	trj := run(core.BackendTrajectory)
	var ss float64
	for i := range den.Fidelities {
		d := den.Fidelities[i] - trj.Fidelities[i]
		ss += d * d
	}
	if rms := math.Sqrt(ss / float64(len(den.Fidelities))); rms > 0.08 {
		t.Errorf("RMS fidelity gap between backends = %v, want < 0.08", rms)
	}
	// The trajectory staircase must still be a faithful AllXY signature.
	if trj.Deviation > 3*den.Deviation+0.05 {
		t.Errorf("trajectory deviation %v far above density %v", trj.Deviation, den.Deviation)
	}
}

func TestRabiTrajectoryBackendCalibrates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	p := DefaultRabiParams()
	p.Rounds = 120
	res, err := NewEnv().RunRabi(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PiScale-1) > 0.06 {
		t.Errorf("trajectory-backend π scale = %v, want ≈ 1", res.PiScale)
	}
}

func TestTrajectoryExperimentsDeterministicAcrossWorkers(t *testing.T) {
	// The sweep contract must hold with stochastic channel unwinding:
	// per-point seeds fix each trajectory, so results are bit-identical
	// for any worker count.
	t.Run("T1", func(t *testing.T) {
		p := DefaultSweepParams()
		p.Rounds = 40
		var prev []float64
		for _, workers := range []int{1, 3} {
			cfg := core.DefaultConfig()
			cfg.Backend = core.BackendTrajectory
			q := p
			q.Workers = workers
			res, err := NewEnv().RunT1(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res.Excited
				continue
			}
			for i := range prev {
				if prev[i] != res.Excited[i] {
					t.Fatalf("point %d differs across worker counts: %v vs %v", i, prev[i], res.Excited[i])
				}
			}
		}
	})
	t.Run("RepCode", func(t *testing.T) {
		p := DefaultRepCodeParams()
		p.Rounds = 100
		var prev *RepCodeResult
		for _, workers := range []int{1, 4} {
			cfg := core.DefaultConfig()
			cfg.Backend = core.BackendTrajectory
			q := p
			q.Workers = workers
			res, err := NewEnv().RunRepCode(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res
				continue
			}
			if res.Unprotected != prev.Unprotected || res.Uncorrected != prev.Uncorrected || res.Protected != prev.Protected {
				t.Fatalf("rates differ across worker counts: %+v vs %+v", prev, res)
			}
		}
	})
}

func TestRepCodeNineQubitsRunsOnTrajectoryOnly(t *testing.T) {
	// Five data qubits (9 total) sit past the density backend's memory
	// wall but run on the trajectory backend.
	p := DefaultRepCodeParams()
	p.DataQubits = 5
	p.Rounds = 60
	p.WaitCycles = 800

	cfg := core.DefaultConfig()
	if _, err := NewEnv().RunRepCode(context.Background(), cfg, p); err == nil {
		t.Fatal("9-qubit repetition code must fail on the density backend")
	}

	cfg.Backend = core.BackendTrajectory
	res, err := NewEnv().RunRepCode(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"unprotected": res.Unprotected,
		"uncorrected": res.Uncorrected,
		"protected":   res.Protected,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s logical error %v outside [0,1]", name, v)
		}
	}
	if res.PhysicalP <= 0 {
		t.Errorf("analytic decay probability = %v, want > 0", res.PhysicalP)
	}
	// Sanity: the bare qubit decays at roughly the analytic rate here too.
	if res.Unprotected < res.PhysicalP*0.5 || res.Unprotected > res.PhysicalP*1.5+0.05 {
		t.Errorf("bare error %v far from analytic %v", res.Unprotected, res.PhysicalP)
	}
}

func TestRepCodeDistanceFiveSyndromeDecode(t *testing.T) {
	// Deterministic check of the generic decoder: on a noiseless
	// 9-qubit machine each injected single-qubit X error must be
	// corrected by its matched syndrome pattern. One full-pipeline shot
	// of the corrected program; the shot's five data readouts are the
	// last entries of its measurement stream (after the four syndrome
	// readouts).
	for _, inject := range []string{"", "q0", "q1", "q2", "q3", "q4"} {
		cfg := core.DefaultConfig()
		cfg.Backend = core.BackendTrajectory
		cfg.NumQubits = 9
		cfg.Qubit = make([]qphys.QubitParams, 9) // noiseless
		cfg.Readout.NoiseSigma = 0
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := RepCodeParams{DataQubits: 5, Rounds: 1, WaitCycles: 8, InitCycles: 40, MeasureCycles: 300}
		prog, err := asm.Assemble(repCodeShotProgram(p, inject, true))
		if err != nil {
			t.Fatal(err)
		}
		var stream []replay.MD
		_, err = replay.Run(context.Background(), m, prog, replay.Options{Shots: 1, Mode: replay.ModeOff, OnShot: func(_ int, md []replay.MD) {
			stream = append(stream, md...)
		}})
		if err != nil {
			t.Fatalf("inject %q: %v", inject, err)
		}
		if len(stream) != 9 {
			t.Fatalf("inject %q: %d readouts, want 4 syndromes + 5 data", inject, len(stream))
		}
		ones := 0
		for _, r := range stream[4:] {
			ones += r.Result
		}
		// The correction must leave |1⟩_L (a majority of ones) — and,
		// with a single error on a noiseless machine, restore every data
		// qubit: a majority alone would survive a missed correction.
		if ones < 3 {
			t.Errorf("inject %q: logical error after correction (data %v)", inject, stream[4:])
		} else if ones < 5 {
			t.Errorf("inject %q: error left uncorrected (data %v)", inject, stream[4:])
		}
	}
}

func TestRepCodeRejectsEvenDistance(t *testing.T) {
	p := DefaultRepCodeParams()
	p.DataQubits = 4
	if _, err := NewEnv().RunRepCode(context.Background(), core.DefaultConfig(), p); err == nil {
		t.Error("even DataQubits must fail (majority vote needs odd)")
	}
}
