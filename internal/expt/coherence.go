package expt

import (
	"context"
	"fmt"
	"strings"

	"quma/internal/core"
	"quma/internal/fit"
	"quma/internal/readout"
	"quma/internal/replay"
)

// SweepParams configures a delay-sweep coherence experiment (T1, Ramsey,
// Echo).
type SweepParams struct {
	Qubit int
	// Rounds is the averaging count per delay point.
	Rounds int
	// InitCycles is the per-shot initialization wait.
	InitCycles int
	// DelaysCycles are the swept delays in 5 ns cycles. For phase-
	// coherent pulse trains these should be multiples of 4 cycles (one
	// SSB period).
	DelaysCycles []int
	// MeasureCycles is the MPG duration.
	MeasureCycles int
	Engine
}

// DefaultSweepParams returns a 16-point sweep to 60 µs, 200 rounds.
func DefaultSweepParams() SweepParams {
	delays := make([]int, 16)
	for i := range delays {
		delays[i] = i * 800 // 0 .. 60 µs in 4 µs steps
	}
	return SweepParams{Qubit: 0, Rounds: 200, InitCycles: 40000, DelaysCycles: delays, MeasureCycles: 300}
}

// SweepResult holds a fitted delay sweep.
type SweepResult struct {
	Params SweepParams
	// DelaysSec are the delays in seconds.
	DelaysSec []float64
	// Excited is the measured |1⟩ population per delay (readout-
	// uncorrected; the simulated readout is high fidelity).
	Excited []float64
}

// shotProgram emits the per-shot program for one delay point: one
// init-wait, body, measure. The averaging loop lives in the replay
// engine (Shots = Rounds), not in the assembly.
//
// shape: body(delay) must emit the pulses; it receives the delay in
// cycles.
func shotProgram(p SweepParams, delayCycles int, body func(b *strings.Builder, delayCycles int)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mov r15, %d\n", p.InitCycles)
	fmt.Fprintf(&b, "QNopReg r15\n")
	body(&b, delayCycles)
	fmt.Fprintf(&b, "MPG {q%d}, %d\n", p.Qubit, p.MeasureCycles)
	fmt.Fprintf(&b, "MD {q%d}, r7\n", p.Qubit)
	fmt.Fprintf(&b, "halt\n")
	return b.String()
}

// runSweep executes a delay sweep on the parallel sweep engine — one
// pooled machine per delay point, seeded with DeriveSeed(cfg.Seed, point),
// running Rounds shots through the replay engine — and converts averaged
// integration results to populations via the MDU's two calibration
// levels. The calibration means depend only on the shared config, so they
// are computed once, outside the worker closures. Machines and assembled
// programs come from env, whose lifetime the caller controls (one run
// for a command or example, service lifetime for internal/service).
func runSweep(ctx context.Context, env *Env, cfg core.Config, p SweepParams, body func(b *strings.Builder, delayCycles int)) (*SweepResult, error) {
	if len(p.DelaysCycles) == 0 || p.Rounds <= 0 {
		return nil, fmt.Errorf("expt: empty sweep")
	}
	cfg.CollectK = 1
	if cfg.NumQubits <= p.Qubit {
		cfg.NumQubits = p.Qubit + 1
	}
	if cfg.Readout.IntegrationSamples == 0 {
		cfg.Readout = readout.DefaultParams()
	}
	// Analytic calibration (the AllXY experiment demonstrates the
	// in-experiment calibration path): per-point machines share the
	// readout config, so the two calibration levels are per-sweep
	// constants.
	w := readout.Calibrate(cfg.Readout).Weight
	s0 := real(cfg.Readout.Mean0 * w)
	s1 := real(cfg.Readout.Mean1 * w)
	if s1 == s0 {
		return nil, fmt.Errorf("expt: degenerate readout calibration (S0 = S1 = %v)", s0)
	}
	res := &SweepResult{
		Params:    p,
		DelaysSec: make([]float64, len(p.DelaysCycles)),
		Excited:   make([]float64, len(p.DelaysCycles)),
	}
	pool := env.poolFor(cfg)
	plan := ShotShardPlan(p.Rounds)
	err := runPool(ctx, len(p.DelaysCycles), p.Workers, func(i int) error {
		d := p.DelaysCycles[i]
		prog, err := env.progs.get(shotProgram(p, d, body))
		if err != nil {
			return err
		}
		// Each shard's collector is merged exactly: shard sums and
		// counts added in shard order, divided once. With one shard this
		// reproduces Averages()[0] bit for bit.
		sums := make([]float64, shardCount(plan))
		counts := make([]int, shardCount(plan))
		_, err = runShotJobSharded(ctx, pool, DeriveSeed(cfg.Seed, i), prog, p.Rounds, plan, p.Engine, nil, nil,
			func(k int, m *core.Machine, _ replay.Stats) error {
				sums[k] = m.Collector.Sums()[0]
				counts[k] = m.Collector.Counts()[0]
				return nil
			})
		if err != nil {
			return err
		}
		var sum float64
		var n int
		for k := range sums {
			sum += sums[k]
			n += counts[k]
		}
		avg := 0.0
		if n > 0 {
			avg = sum / float64(n)
		}
		res.DelaysSec[i] = float64(d) * 5e-9
		res.Excited[i] = (avg - s0) / (s1 - s0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// T1Result is a fitted T1 relaxation measurement.
type T1Result struct {
	SweepResult
	Fit fit.ExpDecay
}

// RunT1 measures energy relaxation: X180, wait τ, measure; P(1) decays as
// e^{-τ/T1}.
func (e *Env) RunT1(ctx context.Context, cfg core.Config, p SweepParams) (*T1Result, error) {
	sr, err := runSweep(ctx, e, cfg, p, func(b *strings.Builder, d int) {
		fmt.Fprintf(b, "Pulse {q%d}, X180\nWait 4\n", p.Qubit)
		if d > 0 {
			fmt.Fprintf(b, "Wait %d\n", d)
		}
	})
	if err != nil {
		return nil, err
	}
	f, err := fit.FitExpDecay(sr.DelaysSec, sr.Excited)
	if err != nil {
		return nil, fmt.Errorf("expt: T1 fit: %w", err)
	}
	return &T1Result{SweepResult: *sr, Fit: f}, nil
}

// RamseyResult is a fitted T2* Ramsey measurement.
type RamseyResult struct {
	SweepResult
	Fit fit.DampedCosine
}

// RunRamsey measures dephasing: X90, wait τ, X90, measure. With a drive
// detuning Δ (set via cfg.Qubit[q].FreqDetuningHz) the population
// oscillates at Δ under an e^{-τ/T2*} envelope.
func (e *Env) RunRamsey(ctx context.Context, cfg core.Config, p SweepParams) (*RamseyResult, error) {
	sr, err := runSweep(ctx, e, cfg, p, func(b *strings.Builder, d int) {
		fmt.Fprintf(b, "Pulse {q%d}, X90\nWait 4\n", p.Qubit)
		if d > 0 {
			fmt.Fprintf(b, "Wait %d\n", d)
		}
		fmt.Fprintf(b, "Pulse {q%d}, X90\nWait 4\n", p.Qubit)
	})
	if err != nil {
		return nil, err
	}
	f, err := fit.FitDampedCosine(sr.DelaysSec, sr.Excited)
	if err != nil {
		return nil, fmt.Errorf("expt: Ramsey fit: %w", err)
	}
	return &RamseyResult{SweepResult: *sr, Fit: f}, nil
}

// EchoResult is a fitted T2 echo measurement.
type EchoResult struct {
	SweepResult
	Fit fit.ExpDecay
}

// RunEcho measures echo coherence: X90, wait τ/2, X180, wait τ/2, X90.
// The π pulse refocuses static detuning, so the envelope decays with the
// echo time constant instead of oscillating.
func (e *Env) RunEcho(ctx context.Context, cfg core.Config, p SweepParams) (*EchoResult, error) {
	sr, err := runSweep(ctx, e, cfg, p, func(b *strings.Builder, d int) {
		half := d / 2
		half -= half % 4 // keep the π pulse SSB-phase aligned
		fmt.Fprintf(b, "Pulse {q%d}, X90\nWait 4\n", p.Qubit)
		if half > 0 {
			fmt.Fprintf(b, "Wait %d\n", half)
		}
		fmt.Fprintf(b, "Pulse {q%d}, Y180\nWait 4\n", p.Qubit)
		if half > 0 {
			fmt.Fprintf(b, "Wait %d\n", half)
		}
		fmt.Fprintf(b, "Pulse {q%d}, X90\nWait 4\n", p.Qubit)
	})
	if err != nil {
		return nil, err
	}
	f, err := fit.FitExpDecay(sr.DelaysSec, sr.Excited)
	if err != nil {
		return nil, fmt.Errorf("expt: echo fit: %w", err)
	}
	return &EchoResult{SweepResult: *sr, Fit: f}, nil
}
