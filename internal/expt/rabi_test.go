package expt

import (
	"context"
	"math"
	"strings"
	"testing"

	"quma/internal/core"
)

func TestRabiCalibratedPiScale(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRabiParams()
	p.Rounds = 120
	res, err := NewEnv().RunRabi(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// With a correct calibration, the π point sits at scale 1.
	if math.Abs(res.PiScale-1) > 0.05 {
		t.Errorf("π scale = %v, want ≈ 1\n%s", res.PiScale, res.Table())
	}
	// The sweep passes through ~0 at scale 0 and ~1 at scale 1.
	if res.Excited[0] > 0.1 {
		t.Errorf("P at zero amplitude = %v", res.Excited[0])
	}
	var at1 float64
	for i, s := range p.Scales {
		if math.Abs(s-1) < 0.03 {
			at1 = res.Excited[i]
		}
	}
	if at1 < 0.9 {
		t.Errorf("P at nominal π = %v, want ≈ 1", at1)
	}
}

func TestRabiDetectsMiscalibration(t *testing.T) {
	// A -10% amplitude error moves the apparent π point to ≈ 1/0.9.
	cfg := core.DefaultConfig()
	cfg.AmplitudeError = -0.10
	p := DefaultRabiParams()
	p.Rounds = 120
	res, err := NewEnv().RunRabi(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / 0.9
	if math.Abs(res.PiScale-want) > 0.07 {
		t.Errorf("π scale under ε=-0.1: %v, want ≈ %v", res.PiScale, want)
	}
}

func TestRabiSweepWithinDACRange(t *testing.T) {
	for _, s := range DefaultRabiParams().Scales {
		if !pulseSanity(s) {
			t.Errorf("scale %v exceeds DAC range", s)
		}
	}
}

func TestRabiRejectsBadParams(t *testing.T) {
	if _, err := NewEnv().RunRabi(context.Background(), core.DefaultConfig(), RabiParams{Scales: []float64{1}, Rounds: 10}); err == nil {
		t.Error("too few scales must fail")
	}
}

func TestRabiTableRenders(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRabiParams()
	p.Rounds = 40
	res, err := NewEnv().RunRabi(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table(), "π amplitude scale") {
		t.Error("table missing calibration line")
	}
}
