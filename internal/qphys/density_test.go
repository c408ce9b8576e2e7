package qphys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDensityGroundState(t *testing.T) {
	d := NewDensity(1)
	if math.Abs(d.Trace()-1) > tol {
		t.Error("trace != 1")
	}
	if d.ProbExcited(0) != 0 {
		t.Error("ground state must have P(1)=0")
	}
	if math.Abs(d.Purity()-1) > tol {
		t.Error("ground state must be pure")
	}
}

func TestApplyXFlips(t *testing.T) {
	d := NewDensity(1)
	d.Apply1(PauliX(), 0)
	if math.Abs(d.ProbExcited(0)-1) > tol {
		t.Errorf("P(1) after X = %v, want 1", d.ProbExcited(0))
	}
	d.Apply1(PauliX(), 0)
	if d.ProbExcited(0) > tol {
		t.Error("X·X must return to ground")
	}
}

func TestHalfPiRotation(t *testing.T) {
	d := NewDensity(1)
	d.Apply1(RX(math.Pi/2), 0)
	if math.Abs(d.ProbExcited(0)-0.5) > tol {
		t.Errorf("P(1) after RX(π/2) = %v, want 0.5", d.ProbExcited(0))
	}
	x, y, _ := d.BlochVector(0)
	if math.Abs(x) > tol || math.Abs(y+1) > tol {
		t.Errorf("Bloch after RX(π/2) = (%v,%v), want (0,-1)", x, y)
	}
}

func TestTwoQubitCZEntangles(t *testing.T) {
	d := NewDensity(2)
	d.Apply1(Hadamard(), 0)
	d.Apply1(Hadamard(), 1)
	d.Apply2(CZ(), 0, 1)
	d.Apply1(Hadamard(), 1)
	// H⊗H, CZ, I⊗H is a CNOT: |00⟩ -> (|00⟩+|11⟩)/√2 from |+0⟩... check
	// we produced a Bell state: both marginals maximally mixed.
	r0 := d.ReducedQubit(0)
	if math.Abs(real(r0.At(0, 0))-0.5) > tol {
		t.Errorf("qubit 0 marginal not maximally mixed: %v", r0.At(0, 0))
	}
	if d.Purity() < 1-tol {
		t.Error("global state should remain pure")
	}
	pq0 := d.ReducedQubit(0)
	if pur := real(pq0.Mul(pq0).Trace()); math.Abs(pur-0.5) > tol {
		t.Errorf("reduced purity = %v, want 0.5 (maximally entangled)", pur)
	}
}

func TestMeasureCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDensity(1)
	d.Apply1(RY(math.Pi/2), 0)
	m := d.Measure(0, rng)
	// After measurement, probability must match the outcome exactly.
	if math.Abs(d.ProbExcited(0)-float64(m)) > tol {
		t.Errorf("state not collapsed: P(1)=%v after outcome %d", d.ProbExcited(0), m)
	}
	// Re-measuring must be deterministic.
	if m2 := d.Measure(0, rng); m2 != m {
		t.Error("repeated measurement changed outcome")
	}
}

func TestMeasureStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		d := NewDensity(1)
		d.Apply1(RY(math.Pi/2), 0)
		ones += d.Measure(0, rng)
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("measured |1⟩ fraction %v, want ~0.5", frac)
	}
}

func TestMeasureEntangledPair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		d := NewDensity(2)
		d.Apply1(Hadamard(), 0)
		d.Apply2(CNOT(), 0, 1)
		a := d.Measure(0, rng)
		b := d.Measure(1, rng)
		if a != b {
			t.Fatalf("Bell pair outcomes disagree: %d vs %d", a, b)
		}
	}
}

func TestProjectZeroProbabilityOutcome(t *testing.T) {
	d := NewDensity(1)
	// Ground state: projecting onto |1⟩ has zero probability.
	d.Project(0, 1)
	if math.Abs(d.ProbExcited(0)-1) > tol {
		t.Error("projection onto zero-probability outcome must yield that basis state")
	}
	if math.Abs(d.Trace()-1) > tol {
		t.Error("trace must stay 1")
	}
}

func TestResetClearsState(t *testing.T) {
	d := NewDensity(2)
	d.Apply1(PauliX(), 0)
	d.Apply1(Hadamard(), 1)
	d.Reset()
	if d.ProbExcited(0) > tol || d.ProbExcited(1) > tol {
		t.Error("reset must return to |00⟩")
	}
}

func TestReducedQubitOfProduct(t *testing.T) {
	d := NewDensity(2)
	d.Apply1(PauliX(), 1)
	r0 := d.ReducedQubit(0)
	r1 := d.ReducedQubit(1)
	if math.Abs(real(r0.At(0, 0))-1) > tol {
		t.Error("qubit 0 should be |0⟩")
	}
	if math.Abs(real(r1.At(1, 1))-1) > tol {
		t.Error("qubit 1 should be |1⟩")
	}
}

// Property: unitary evolution preserves trace and purity.
func TestPropertyUnitaryPreservesTracePurity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDensity(2)
		// Random initial pure state.
		d.Apply(randomUnitary(r, 2))
		p0 := d.Purity()
		d.Apply(randomUnitary(r, 2))
		return math.Abs(d.Trace()-1) < 1e-9 && math.Abs(d.Purity()-p0) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Kraus channels preserve trace.
func TestPropertyChannelsTracePreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(g, l, p float64) bool {
		g = clampProb(math.Abs(g))
		l = clampProb(math.Abs(l))
		p = clampProb(math.Abs(p))
		d := NewDensity(1)
		d.Apply1(randomUnitary(rand.New(rand.NewSource(int64(g*1e6))), 1), 0)
		d.ApplyKraus1(AmplitudeDamping(g), 0)
		d.ApplyKraus1(PhaseDamping(l), 0)
		d.ApplyKraus1(Depolarizing(p), 0)
		return math.Abs(d.Trace()-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: purity never increases under noise channels.
func TestPropertyNoiseNeverIncreasesPurityFromMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 50; i++ {
		d := NewDensity(1)
		d.Apply1(RY(rng.Float64()*math.Pi), 0)
		d.ApplyKraus1(Depolarizing(0.3), 0)
		p0 := d.Purity()
		d.ApplyKraus1(Depolarizing(rng.Float64()*0.5), 0)
		if d.Purity() > p0+1e-9 {
			t.Fatalf("depolarizing increased purity %v -> %v", p0, d.Purity())
		}
	}
}

// TestClampProbMatchesMinMax pins the compare-based clampProb, bit for
// bit, to the math.Min(1, math.Max(0, p)) form it replaced: the full
// pipeline and the replay executors share it, so any difference would
// move a result.
func TestClampProbMatchesMinMax(t *testing.T) {
	inputs := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000000), math.Float64frombits(0xfff0000000000001),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), -1, 0.5, -0.5, 2, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, p := range inputs {
		want := math.Min(1, math.Max(0, p))
		if got := clampProb(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("clampProb(%v) = %v (%#x), min/max form %v (%#x)", p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := clampProb(math.Copysign(0, -1)); math.Signbit(got) {
		t.Error("clampProb(-0) must be +0")
	}
}
