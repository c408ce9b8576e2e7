package fit

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestRMSDeviation(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 4}
	if d := RMSDeviation(a, b); math.Abs(d-1/math.Sqrt(3)) > 1e-12 {
		t.Errorf("rms = %v", d)
	}
	if d := MaxAbsDeviation(a, b); d != 1 {
		t.Errorf("max = %v", d)
	}
	if RMSDeviation(nil, nil) != 0 {
		t.Error("empty = 0")
	}
}

func TestLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7}
	a, b, err := Linear(x, y)
	if err != nil || math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Errorf("a=%v b=%v err=%v", a, b, err)
	}
}

func TestLinearDegenerate(t *testing.T) {
	if _, _, err := Linear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("expected degenerate error")
	}
	if _, _, err := Linear([]float64{1}, []float64{2}); err == nil {
		t.Error("expected too-few-points error")
	}
}

func TestFitExpDecayCleanData(t *testing.T) {
	truth := ExpDecay{A: 0.9, Tau: 30e-6, C: 0.05}
	var x, y []float64
	for i := 0; i < 30; i++ {
		xi := float64(i) * 5e-6
		x = append(x, xi)
		y = append(y, truth.Eval(xi))
	}
	got, err := FitExpDecay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Tau-truth.Tau)/truth.Tau > 0.01 {
		t.Errorf("tau = %v, want %v", got.Tau, truth.Tau)
	}
	if math.Abs(got.A-truth.A) > 0.01 || math.Abs(got.C-truth.C) > 0.01 {
		t.Errorf("A=%v C=%v", got.A, got.C)
	}
}

func TestFitExpDecayNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := ExpDecay{A: 1.0, Tau: 20e-6, C: 0}
	var x, y []float64
	for i := 0; i < 50; i++ {
		xi := float64(i) * 2e-6
		x = append(x, xi)
		y = append(y, truth.Eval(xi)+rng.NormFloat64()*0.01)
	}
	got, err := FitExpDecay(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Tau-truth.Tau)/truth.Tau > 0.1 {
		t.Errorf("tau = %v, want %v ±10%%", got.Tau, truth.Tau)
	}
}

func TestFitDampedCosineRamsey(t *testing.T) {
	truth := DampedCosine{A: 0.5, Tau: 20e-6, Freq: 250e3, Phase: 0, C: 0.5}
	var x, y []float64
	for i := 0; i < 80; i++ {
		xi := float64(i) * 0.25e-6
		x = append(x, xi)
		y = append(y, truth.Eval(xi))
	}
	got, err := FitDampedCosine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Freq-truth.Freq)/truth.Freq > 0.02 {
		t.Errorf("freq = %v, want %v", got.Freq, truth.Freq)
	}
	if math.Abs(got.Tau-truth.Tau)/truth.Tau > 0.15 {
		t.Errorf("tau = %v, want %v", got.Tau, truth.Tau)
	}
}

func TestFitRBDecay(t *testing.T) {
	truth := RBDecay{A: 0.5, P: 0.985, B: 0.5}
	var m, f []float64
	for _, mi := range []float64{1, 3, 6, 10, 20, 40, 80, 120, 200} {
		m = append(m, mi)
		f = append(f, truth.Eval(mi))
	}
	got, err := FitRBDecay(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.P-truth.P) > 0.003 {
		t.Errorf("p = %v, want %v", got.P, truth.P)
	}
	if r := got.ErrorPerClifford(); math.Abs(r-(1-truth.P)/2) > 0.002 {
		t.Errorf("error per Clifford = %v", r)
	}
}

func TestFitErrorsOnBadInput(t *testing.T) {
	if _, err := FitExpDecay([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error")
	}
	if _, err := FitDampedCosine([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("expected error")
	}
	if _, err := FitRBDecay([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error")
	}
}

// Property: fitting data generated from the model recovers tau for a
// range of decay constants.
func TestPropertyExpDecayRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := ExpDecay{
			A:   0.5 + rng.Float64(),
			Tau: 5e-6 + rng.Float64()*50e-6,
			C:   rng.Float64() * 0.2,
		}
		var x, y []float64
		for i := 0; i < 40; i++ {
			xi := float64(i) * truth.Tau / 10
			x = append(x, xi)
			y = append(y, truth.Eval(xi))
		}
		got, err := FitExpDecay(x, y)
		if err != nil {
			return false
		}
		return math.Abs(got.Tau-truth.Tau)/truth.Tau < 0.05
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, ok := solve([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); ok {
		t.Error("singular system must fail")
	}
}

// TestDampedCosineJSON pins the wire form: an undamped fit (FitRabi's
// τ = +Inf) encodes with a null Tau and decodes back to +Inf, and a
// finite fit encodes byte for byte as the plain struct.
func TestDampedCosineJSON(t *testing.T) {
	undamped := DampedCosine{A: 0.5, Tau: math.Inf(1), Freq: 0.25, Phase: math.Pi, C: 0.5}
	b, err := json.Marshal(undamped)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"A":0.5,"Tau":null,"Freq":0.25,"Phase":3.141592653589793,"C":0.5}`; string(b) != want {
		t.Errorf("undamped encodes as %s, want %s", b, want)
	}
	var back DampedCosine
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != undamped {
		t.Errorf("round trip: %+v, want %+v", back, undamped)
	}

	damped := DampedCosine{A: 0.4, Tau: 2e-5, Freq: 1e5, Phase: 0.1, C: 0.5}
	type plain DampedCosine
	want, err := json.Marshal(plain(damped))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = json.Marshal(damped); err != nil || string(b) != string(want) {
		t.Errorf("finite fit encodes as %s (%v), want %s", b, err, want)
	}
	back = DampedCosine{}
	if err := json.Unmarshal(b, &back); err != nil || back != damped {
		t.Errorf("finite round trip: %+v (%v), want %+v", back, err, damped)
	}
}
