package expt

import (
	"context"
	"fmt"
	"strings"

	"quma/internal/awg"
	"quma/internal/core"
	"quma/internal/fit"
	"quma/internal/pulse"
	"quma/internal/replay"
)

// Rabi-oscillation calibration: the experiment that produces the
// calibrated pulse amplitudes living in the CTPG lookup table ("the
// pulses are calibrated and placed in the memory of these generators",
// paper §4.2; "prior to the experiment, the qubit pulses are calibrated
// and uploaded into control box AWG 2", §8). The drive amplitude is
// swept, each point uploading a scaled pulse into a spare codeword and
// measuring the excited-state population; the resulting cosine fixes the
// π-pulse amplitude. This exercises the re-upload path of the CTPG: the
// lookup table is configuration state, changed without touching the
// program.
//
// RabiCodeword is the spare LUT entry used for the swept pulse.
const RabiCodeword awg.Codeword = 8

// RabiParams configures the amplitude sweep.
type RabiParams struct {
	Qubit int
	// Scales are the amplitude multipliers applied to the nominal
	// π-pulse amplitude.
	Scales []float64
	// Rounds is the averaging count per scale point.
	Rounds int
	// InitCycles and MeasureCycles as in the other experiments.
	InitCycles    int
	MeasureCycles int
	Engine
}

// DefaultRabiParams sweeps 0..1.1× the nominal π amplitude in 23 steps
// (the nominal π pulse sits at ~0.9 of DAC full scale, so 1.1× is the
// largest headroom-safe excursion).
func DefaultRabiParams() RabiParams {
	p := RabiParams{Qubit: 0, Rounds: 150, InitCycles: 40000, MeasureCycles: 300}
	for i := 0; i <= 22; i++ {
		p.Scales = append(p.Scales, float64(i)*1.1/22)
	}
	return p
}

// RabiResult holds the sweep and its calibration outcome.
type RabiResult struct {
	Params RabiParams
	// Excited is the measured P(|1⟩) per scale point.
	Excited []float64
	// Fit is the fitted oscillation (x = amplitude scale).
	Fit fit.DampedCosine
	// PiScale is the extracted amplitude scale of a π rotation: the
	// half-period of the oscillation. 1.0 means the nominal calibration
	// was already correct.
	PiScale float64
}

// RunRabi sweeps the drive amplitude on the parallel sweep engine: each
// scale point runs on its own machine seeded with DeriveSeed(cfg.Seed,
// point), with the scaled pulse uploaded into the machine's spare LUT
// entry before the shots. The machine's AmplitudeError (if any) shifts
// the apparent π point, which is exactly what the calibration detects:
// the fitted PiScale times the nominal amplitude is the corrected
// calibration. The fixed-phase fit (fit.FitRabi) keeps the extraction
// robust to the per-point shot noise that independent seeding introduces.
//
// The swept pulse is re-uploaded unconditionally on every point
// (the pooled-machine contract for custom LUT content), so sharing
// machines with other experiments is safe in both directions.
func (e *Env) RunRabi(ctx context.Context, cfg core.Config, p RabiParams) (*RabiResult, error) {
	if len(p.Scales) < 8 || p.Rounds <= 0 {
		return nil, fmt.Errorf("expt: Rabi sweep needs ≥8 scales and ≥1 round")
	}
	if cfg.NumQubits <= p.Qubit {
		cfg.NumQubits = p.Qubit + 1
	}
	// The machine applies its own AmplitudeError to the standard
	// library; the sweep reproduces that by scaling the nominal π pulse
	// and re-synthesizing with the same error knob.
	nominal := awg.StandardPulse{Codeword: RabiCodeword, Name: "RABI", Phi: 0, Theta: 3.141592653589793}

	// Every scale point shares one per-shot program (the swept quantity
	// lives in the LUT, not the program text), so the cache assembles it
	// exactly once for the whole sweep.
	var program strings.Builder
	fmt.Fprintf(&program, "mov r15, %d\nQNopReg r15\nPulse {q%d}, RABI\nWait 4\nMPG {q%d}, %d\nMD {q%d}, r7\nhalt\n",
		p.InitCycles, p.Qubit, p.Qubit, p.MeasureCycles, p.Qubit)
	src := program.String()

	res := &RabiResult{Params: p, Excited: make([]float64, len(p.Scales))}
	pool := e.poolFor(cfg)
	err := runPool(ctx, len(p.Scales), p.Workers, func(i int) error {
		prog, err := e.progs.get(src)
		if err != nil {
			return err
		}
		var ones int
		_, err = runShotJobSharded(ctx, pool, DeriveSeed(cfg.Seed, i), prog, p.Rounds, ShotShardPlan(p.Rounds), p.Engine,
			func(m *core.Machine) error {
				m.UOp.DefinePrimitive("RABI", RabiCodeword)
				scaled := nominal
				scaled.Theta = nominal.Theta * p.Scales[i]
				w := awg.SynthesizeStandard(scaled, m.Cfg.SSBHz, cfg.AmplitudeError)
				if err := m.UploadPulse(p.Qubit, RabiCodeword, "RABI", w); err != nil {
					return fmt.Errorf("expt: uploading scale %.3f: %w", p.Scales[i], err)
				}
				return nil
			},
			func(_ int, md []replay.MD) {
				if len(md) > 0 && md[0].Result == 1 {
					ones++
				}
			}, nil)
		if err != nil {
			return err
		}
		res.Excited[i] = float64(ones) / float64(p.Rounds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := fit.FitRabi(p.Scales, res.Excited)
	if err != nil {
		return nil, fmt.Errorf("expt: Rabi fit: %w", err)
	}
	res.Fit = f
	if f.Freq <= 0 {
		return nil, fmt.Errorf("expt: Rabi fit found non-positive frequency %v", f.Freq)
	}
	res.PiScale = 1 / (2 * f.Freq)
	return res, nil
}

// Table renders the sweep.
func (r *RabiResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %s\n", "scale", "P(|1>)", "fit")
	for i, s := range r.Params.Scales {
		fmt.Fprintf(&b, "%-8.3f %-8.4f %.4f\n", s, r.Excited[i], r.Fit.Eval(s))
	}
	fmt.Fprintf(&b, "π amplitude scale: %.4f of nominal\n", r.PiScale)
	return b.String()
}

// pulseSanity is referenced by tests to assert the nominal pulse stays
// within DAC range across the sweep.
func pulseSanity(scale float64) bool {
	theta := 3.141592653589793 * scale
	amp := pulse.CalibratedGaussianAmp(awg.StandardDurationSamples, awg.StandardSigma, theta)
	return amp <= 1
}
