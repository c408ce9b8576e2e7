package qphys

import (
	"math"
	"math/rand"
	"testing"

	"quma/internal/prng"
)

// The trajectory backend's unitary kernels must match the Density
// backend exactly (≤1e-12): a pure state evolved by Apply1/Apply2 must
// satisfy |ψ⟩⟨ψ| = ρ for the density register evolved by the same gates.
// Channel application is stochastic per trajectory, so it is pinned
// statistically: means over many seeds converge to the exact channel.

// randomTrajectoryState puts t (and the returned mirror Density) in the
// same random pure state.
func randomTrajectoryState(t *Trajectory, rng *rand.Rand) *Density {
	var norm float64
	for i := range t.Psi {
		t.Psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(t.Psi[i])*real(t.Psi[i]) + imag(t.Psi[i])*imag(t.Psi[i])
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range t.Psi {
		t.Psi[i] *= inv
	}
	d := NewDensity(t.NumQubits())
	copy(d.Rho.Data, t.DensityMatrix().Data)
	return d
}

func TestTrajectoryApply1PinnedToDensity(t *testing.T) {
	src := prng.New(11)
	rng := rand.New(src)
	for n := 1; n <= 5; n++ {
		for trial := 0; trial < 8; trial++ {
			tr := NewTrajectorySource(n, src)
			d := randomTrajectoryState(tr, rng)
			u := randomUnitaryGS(2, rng)
			q := rng.Intn(n)
			tr.Apply1(u, q)
			d.Apply1(u, q)
			if diff := tr.DensityMatrix().MaxAbsDiff(d.Rho); diff > 1e-12 {
				t.Fatalf("n=%d q=%d trial %d: trajectory Apply1 deviates from density by %v", n, q, trial, diff)
			}
		}
	}
}

func TestTrajectoryApply2PinnedToDensity(t *testing.T) {
	src := prng.New(12)
	rng := rand.New(src)
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 8; trial++ {
			tr := NewTrajectorySource(n, src)
			d := randomTrajectoryState(tr, rng)
			u := randomUnitaryGS(4, rng)
			qa := rng.Intn(n)
			qb := rng.Intn(n - 1)
			if qb >= qa {
				qb++
			}
			tr.Apply2(u, qa, qb)
			d.Apply2(u, qa, qb)
			if diff := tr.DensityMatrix().MaxAbsDiff(d.Rho); diff > 1e-12 {
				t.Fatalf("n=%d (%d,%d) trial %d: trajectory Apply2 deviates from density by %v", n, qa, qb, trial, diff)
			}
		}
	}
}

func TestTrajectoryRandomCircuitPinnedToDensity(t *testing.T) {
	// A deeper random circuit catches convention mismatches (bit order,
	// control/target) that single gates can miss.
	src := prng.New(13)
	rng := rand.New(src)
	for n := 2; n <= 4; n++ {
		tr := NewTrajectorySource(n, src)
		d := NewDensity(n)
		for step := 0; step < 30; step++ {
			if rng.Intn(2) == 0 {
				u := randomUnitaryGS(2, rng)
				q := rng.Intn(n)
				tr.Apply1(u, q)
				d.Apply1(u, q)
			} else {
				u := randomUnitaryGS(4, rng)
				qa := rng.Intn(n)
				qb := rng.Intn(n - 1)
				if qb >= qa {
					qb++
				}
				tr.Apply2(u, qa, qb)
				d.Apply2(u, qa, qb)
			}
		}
		if diff := tr.DensityMatrix().MaxAbsDiff(d.Rho); diff > 1e-12 {
			t.Fatalf("n=%d: 30-gate random circuit deviates from density by %v", n, diff)
		}
		for q := 0; q < n; q++ {
			if diff := math.Abs(tr.ProbExcited(q) - d.ProbExcited(q)); diff > 1e-12 {
				t.Fatalf("n=%d q=%d: ProbExcited deviates by %v", n, q, diff)
			}
			if diff := tr.ReducedQubit(q).MaxAbsDiff(d.ReducedQubit(q)); diff > 1e-12 {
				t.Fatalf("n=%d q=%d: ReducedQubit deviates by %v", n, q, diff)
			}
		}
	}
}

// TestTrajectoryApplyKraus1GeneralChannelsPinned pins the full-pipeline
// channel kernel on the channels a ChannelTable rejects — a single
// operator (applied as a unitary, no variate), a dense operator set (the
// general per-operator-pass path) and a complex-diagonal set — to the
// Embed reference: the variate selects operator k by the cumulative Born
// weights p_k = tr(K_k ρ K_k†), and the state becomes K_k ρ K_k† / p_k.
func TestTrajectoryApplyKraus1GeneralChannelsPinned(t *testing.T) {
	h := Hadamard()
	ad := AmplitudeDamping(0.2)
	pd := PhaseDamping(0.4)
	channels := map[string][]Matrix{
		"single-op":        {RX(0.7)},
		"dense":            {h.Mul(ad[0]).Mul(h.Dagger()), h.Mul(ad[1]).Mul(h.Dagger())},
		"complex-diagonal": {RZ(0.9).Mul(pd[0]), pd[1]},
	}
	for name, ops := range channels {
		for n := 1; n <= 3; n++ {
			for q := 0; q < n; q++ {
				for seed := int64(1); seed <= 20; seed++ {
					src := prng.New(seed)
					tr := NewTrajectorySource(n, src)
					rho := randomTrajectoryState(tr, rand.New(rand.NewSource(seed+500))).Rho
					probe := *src
					r := -1.0 // a single operator draws no variate
					if len(ops) > 1 {
						r = probe.Float64()
					}
					tr.ApplyKraus1(ops, q)
					var want Matrix
					cum := 0.0
					for _, k := range ops {
						lk := Embed(k, q, n)
						rk := lk.Mul(rho).Mul(lk.Dagger())
						p := real(rk.Trace())
						cum += p
						want = rk.Scale(complex(1/p, 0))
						if r < cum {
							break
						}
					}
					if diff := tr.DensityMatrix().MaxAbsDiff(want); diff > 1e-12 {
						t.Fatalf("%s n=%d q=%d seed=%d: ApplyKraus1 deviates from the Embed reference by %v", name, n, q, seed, diff)
					}
					if got, want := src.Float64(), probe.Float64(); got != want {
						t.Fatalf("%s n=%d q=%d seed=%d: ApplyKraus1 consumed the wrong number of variates", name, n, q, seed)
					}
				}
			}
		}
	}
}

func TestTrajectoryKrausSamplingIsExactInExpectation(t *testing.T) {
	// Amplitude damping γ = 0.3 on |1⟩: the exact channel leaves
	// P(|1⟩) = 0.7; the trajectory mean over many seeds must converge.
	const trials = 4000
	ops := AmplitudeDamping(0.3)
	var sum float64
	src := prng.New(14)
	for i := 0; i < trials; i++ {
		tr := NewTrajectorySource(1, src)
		tr.Apply1(PauliX(), 0)
		tr.ApplyKraus1(ops, 0)
		sum += tr.ProbExcited(0)
	}
	mean := sum / trials
	// Binomial-ish std ≈ sqrt(0.3·0.7/4000) ≈ 0.007; 4σ margin.
	if math.Abs(mean-0.7) > 0.03 {
		t.Errorf("trajectory mean P(|1⟩) = %v, want ≈ 0.7", mean)
	}
}

func TestTrajectoryDecoherenceChannelMatchesDensityMean(t *testing.T) {
	// A full 8-operator decoherence channel on a superposition: the
	// trajectory ensemble mean of ⟨Z⟩ must match the exact density value.
	p := DefaultQubitParams()
	dt := 5e-6
	ops := DecoherenceChannel(dt, p)
	d := NewDensity(1)
	d.Apply1(RX(math.Pi/2), 0)
	d.ApplyKraus1(ops, 0)
	want := d.ExpectationZ(0)

	const trials = 4000
	var sum float64
	src := prng.New(15)
	for i := 0; i < trials; i++ {
		tr := NewTrajectorySource(1, src)
		tr.Apply1(RX(math.Pi/2), 0)
		tr.ApplyKraus1(ops, 0)
		sum += tr.ExpectationZ(0)
	}
	mean := sum / trials
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("trajectory mean ⟨Z⟩ = %v, density exact = %v", mean, want)
	}
}

func TestTrajectoryKrausPreservesNorm(t *testing.T) {
	src := prng.New(16)
	rng := rand.New(src)
	tr := NewTrajectorySource(3, src)
	randomTrajectoryState(tr, rng)
	ops := DecoherenceChannel(50e-9, DefaultQubitParams())
	for i := 0; i < 50; i++ {
		tr.ApplyKraus1(ops, i%3)
	}
	if n := tr.Norm(); math.Abs(n-1) > 1e-10 {
		t.Errorf("norm after 50 channel applications = %v, want 1", n)
	}
	if p := tr.Purity(); math.Abs(p-1) > 1e-9 {
		t.Errorf("purity = %v, want 1 (trajectory states stay pure)", p)
	}
}

func TestTrajectoryMeasureCollapses(t *testing.T) {
	src := prng.New(17)
	rng := rand.New(src)
	tr := NewTrajectorySource(2, src)
	tr.Apply1(Hadamard(), 0)
	tr.Apply2(CNOT(), 0, 1) // Bell pair: outcomes must correlate
	a := tr.Measure(0, rng)
	b := tr.Measure(1, rng)
	if a != b {
		t.Errorf("Bell-pair outcomes disagree: %d vs %d", a, b)
	}
	if m2 := tr.Measure(0, rng); m2 != a {
		t.Errorf("repeated measurement changed outcome: %d then %d", a, m2)
	}
	if p := tr.ProbExcited(0); p != float64(a) {
		t.Errorf("post-measurement P(|1⟩) = %v, want %d", p, a)
	}
}

func TestTrajectoryProjectZeroProbabilityResets(t *testing.T) {
	src := prng.New(18)
	tr := NewTrajectorySource(1, src)
	tr.Project(0, 1) // P(|1⟩) = 0: reset to the consistent basis state
	if p := tr.ProbExcited(0); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(|1⟩) after zero-probability projection = %v, want 1", p)
	}
}

func TestTrajectoryKernelsDoNotAllocate(t *testing.T) {
	src := prng.New(19)
	tr := NewTrajectorySource(3, src)
	tr.Apply1(RX(math.Pi/2), 1)
	u := RX(0.3)
	cz := CZ()
	ops := DecoherenceChannel(20e-9, DefaultQubitParams())
	if allocs := testing.AllocsPerRun(50, func() { tr.Apply1(u, 1) }); allocs != 0 {
		t.Errorf("Apply1 allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { tr.Apply2(cz, 0, 2) }); allocs != 0 {
		t.Errorf("Apply2 allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { tr.ApplyKraus1(ops, 1) }); allocs != 0 {
		t.Errorf("ApplyKraus1 allocates %v per run, want 0", allocs)
	}
}

func TestTrajectoryScalesPastDensityWall(t *testing.T) {
	// 16 qubits: impossible for NewDensity (4^16 matrix), cheap here.
	src := prng.New(20)
	tr := NewTrajectorySource(16, src)
	for q := 0; q < 16; q++ {
		tr.Apply1(Hadamard(), q)
	}
	for q := 0; q < 16; q++ {
		if p := tr.ProbExcited(q); math.Abs(p-0.5) > 1e-9 {
			t.Fatalf("q%d: P(|1⟩) = %v, want 0.5", q, p)
		}
	}
	if n := tr.Norm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("norm = %v, want 1", n)
	}
}
