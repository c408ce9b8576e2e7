package qphys

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quma/internal/prng"
)

// Property tests for the compiled-channel hooks: every compiled kernel
// must be bit-identical to the un-compiled path it replaces (same PRNG
// consumption, same amplitudes under ==, which treats ±0 as equal), and
// the fused/hoisted kernels must stay pinned to the dense Embed-based
// reference at 1e-12.

// testChannels returns a representative set of the channels a
// ChannelTable accepts: everything DecoherenceChannel composes, plus
// depolarizing (anti-diagonal operators with complex entries) and a
// damping channel listed jump first, whose first operator is not
// diagonal and so never takes the executors' first-operator fast path.
func testChannels() map[string][]Matrix {
	ad := AmplitudeDamping(0.3)
	return map[string][]Matrix{
		"decoherence-short":  DecoherenceChannel(20e-9, DefaultQubitParams()),
		"decoherence-long":   DecoherenceChannel(8e-6, DefaultQubitParams()),
		"decoherence-huge":   DecoherenceChannel(200e-6, DefaultQubitParams()),
		"thermal":            DecoherenceChannel(1e-6, QubitParams{T1: 30e-6, T2: 20e-6, ThermalPopulation: 0.01}),
		"depolarizing":       Depolarizing(0.1),
		"damping":            ad,
		"dephasing":          PhaseDamping(0.4),
		"damping-jump-first": {ad[1], ad[0]},
	}
}

// randomTrajectory returns a normalized random n-qubit state whose
// channel sampling draws from a PRNG seeded with seed.
func randomTrajectory(n int, seed int64) *Trajectory {
	t := NewTrajectorySource(n, prng.New(seed))
	gen := rand.New(rand.NewSource(seed + 1000))
	var norm float64
	for i := range t.Psi {
		re, im := gen.NormFloat64(), gen.NormFloat64()
		t.Psi[i] = complex(re, im)
		norm += re*re + im*im
	}
	inv := complex(1/math.Sqrt(norm), 0)
	for i := range t.Psi {
		t.Psi[i] *= inv
	}
	return t
}

func samePsi(t *testing.T, want, got *Trajectory, context string) {
	t.Helper()
	for i := range want.Psi {
		if want.Psi[i] != got.Psi[i] {
			t.Fatalf("%s: amplitude %d differs: %v vs %v", context, i, want.Psi[i], got.Psi[i])
		}
	}
}

// sameRNG verifies both machines' PRNG streams are at the same position.
func sameRNG(t *testing.T, a, b *Trajectory, context string) {
	t.Helper()
	if x, y := a.src.Float64(), b.src.Float64(); x != y {
		t.Fatalf("%s: PRNG streams diverged: next draws %v vs %v", context, x, y)
	}
}

func TestApplyChannelBitIdenticalToApplyKraus1(t *testing.T) {
	for name, ops := range testChannels() {
		for _, n := range []int{1, 3, 5} {
			for q := 0; q < n; q++ {
				for seed := int64(1); seed <= 5; seed++ {
					ref := randomTrajectory(n, seed)
					cmp := randomTrajectory(n, seed)
					ref.ApplyKraus1(ops, q)
					cmp.ApplyChannel(NewChannelTable(ops), q)
					ctx := fmt.Sprintf("%s n=%d q=%d seed=%d", name, n, q, seed)
					samePsi(t, ref, cmp, ctx)
					sameRNG(t, ref, cmp, ctx)
				}
			}
		}
	}
}

// TestDecoherenceChannelCompiles pins the premise of compiled replay's
// channel class: on a grid of finite parameters (dt from 1 ns to 1 ms;
// T1, T2 and the thermal population each including 0), every
// non-identity DecoherenceChannel — the only channel the machine records
// — has 2 to maxKraus1 operators, NewChannelTable accepts it, and its
// compiled application matches ApplyKraus1 bit for bit. The identity
// case, {I}, is exactly the one the machine never records.
func TestDecoherenceChannelCompiles(t *testing.T) {
	for _, dt := range []float64{1e-9, 20e-9, 1e-6, 8e-6, 1e-4, 1e-3} {
		for _, t1 := range []float64{0, 1e-7, 30e-6, 1e-3, 10} {
			for _, t2 := range []float64{0, 1e-7, 20e-6, 60e-6, 1e-3, 10} {
				for _, pth := range []float64{0, 0.01, 0.5, 1} {
					p := QubitParams{T1: t1, T2: t2, ThermalPopulation: pth}
					ops := DecoherenceChannel(dt, p)
					ctx := fmt.Sprintf("dt=%g T1=%g T2=%g pth=%g", dt, t1, t2, pth)
					if t1 <= 0 && t2 <= 0 {
						if len(ops) != 1 || ops[0].MaxAbsDiff(Identity(2)) != 0 {
							t.Fatalf("%s: want the identity channel {I}, got %d operators", ctx, len(ops))
						}
						continue
					}
					if len(ops) < 2 || len(ops) > maxKraus1 {
						t.Fatalf("%s: %d operators, want 2..%d", ctx, len(ops), maxKraus1)
					}
					ct := NewChannelTable(ops)
					ref := randomTrajectory(2, 3)
					cmp := randomTrajectory(2, 3)
					ref.ApplyKraus1(ops, 1)
					cmp.ApplyChannel(ct, 1)
					samePsi(t, ref, cmp, ctx)
					sameRNG(t, ref, cmp, ctx)
				}
			}
		}
	}
}

// TestNewChannelTableRejectsUnsupported pins the other side of the
// channel class: a dense operator, a complex-diagonal operator, a single
// operator and more than maxKraus1 operators each panic, so no compiled
// executor needs a path for them.
func TestNewChannelTableRejectsUnsupported(t *testing.T) {
	h := Hadamard()
	ad := AmplitudeDamping(0.2)
	pd := PhaseDamping(0.4)
	wide := make([]Matrix, maxKraus1+1)
	for i := range wide {
		wide[i] = Identity(2).Scale(complex(math.Sqrt(1/float64(len(wide))), 0))
	}
	cases := map[string][]Matrix{
		"dense":            {h.Mul(ad[0]).Mul(h.Dagger()), h.Mul(ad[1]).Mul(h.Dagger())},
		"complex-diagonal": {RZ(0.9).Mul(pd[0]), pd[1]},
		"single-op":        {RX(0.7)},
		"wide":             wide,
		"empty":            nil,
		"two-qubit":        {Identity(4), Identity(4)},
	}
	for name, ops := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewChannelTable accepted an unsupported channel", name)
				}
			}()
			NewChannelTable(ops)
		}()
	}
}

// TestApplyChannelCarryChain drives a chain of channel applications with
// the carry threaded between steps — same-qubit, cross-qubit, and a
// CZ in the middle — against plain ApplyKraus1 calls. The carry must
// change nothing, bit for bit, including when an anti-diagonal draw
// breaks it mid-chain.
func TestApplyChannelCarryChain(t *testing.T) {
	chans := testChannels()
	chain := []struct {
		ch string
		q  int
	}{
		{"decoherence-long", 0}, {"decoherence-long", 1}, {"decoherence-long", 4},
		{"decoherence-huge", 2}, {"depolarizing", 3}, {"decoherence-short", 3},
		{"damping-jump-first", 0}, {"decoherence-short", 1},
	}
	const n = 5
	for seed := int64(1); seed <= 20; seed++ {
		ref := randomTrajectory(n, seed)
		cmp := randomTrajectory(n, seed)
		carry := PopCarry{}
		carryQ := -1
		for i, step := range chain {
			if i == 3 {
				// A CZ between carry producer and consumer: amplitudes
				// change but every |a|² keeps its bits, so the carry must
				// survive the gate.
				ref.Apply2(CZ(), 1, 3)
				cmp.Apply2(CZ(), 1, 3)
			}
			ops := chans[step.ch]
			ref.ApplyKraus1(ops, step.q)
			nextQ := -1
			if i+1 < len(chain) {
				nextQ = chain[i+1].q
			}
			in := carry
			if carryQ != step.q {
				in.Valid = false
			}
			carry = cmp.ApplyChannelCarry(NewChannelTable(ops), step.q, in, nextQ)
			carryQ = nextQ
		}
		samePsi(t, ref, cmp, fmt.Sprintf("chain seed=%d", seed))
		sameRNG(t, ref, cmp, fmt.Sprintf("chain seed=%d", seed))
	}
}

func TestMeasureCarryMatchesMeasure(t *testing.T) {
	const n = 4
	for q := 0; q < n; q++ {
		for seed := int64(1); seed <= 10; seed++ {
			ref := randomTrajectory(n, seed)
			cmp := randomTrajectory(n, seed)
			want := ref.Measure(q, rand.New(ref.src))
			outcome, carry := cmp.MeasureCarry(q, cmp.ProbExcited(q), cmp.src.Float64(), true)
			if want != outcome {
				t.Fatalf("q=%d seed=%d: outcomes differ: %d vs %d", q, seed, want, outcome)
			}
			samePsi(t, ref, cmp, fmt.Sprintf("measure q=%d seed=%d", q, seed))
			if !carry.Valid {
				t.Fatalf("q=%d seed=%d: no carry from MeasureCarry", q, seed)
			}
			// The carried populations must equal a fresh pass bit for bit.
			var p0, p1 float64
			bit := n - 1 - q
			for i, a := range cmp.Psi {
				if (i>>bit)&1 == 0 {
					p0 += real(a)*real(a) + imag(a)*imag(a)
				} else {
					p1 += real(a)*real(a) + imag(a)*imag(a)
				}
			}
			if carry.P0 != p0 || carry.P1 != p1 {
				t.Fatalf("q=%d seed=%d: carry (%v,%v) != fresh pass (%v,%v)", q, seed, carry.P0, carry.P1, p0, p1)
			}
		}
	}
}

// TestApply1RDAndCarryMatchApply1 pins Apply1RD — the span kernel at one
// lane, so masks 2..8 reach its AVX2 and AVX-512 bodies — and
// Apply1RDCarry to the reference Apply1 on every SIMD tier the host has.
func TestApply1RDAndCarryMatchApply1(t *testing.T) {
	const n = 4
	us := []Matrix{REquator(0.3, 1.1), REquator(2.0, math.Pi), RX(0.5), Hadamard()}
	for _, mode := range simdModes() {
		withSIMD(mode, func() {
			for ui, u := range us {
				if !RealDiag2(u) {
					t.Fatalf("test unitary %d should have real diagonal entries", ui)
				}
				for q := 0; q < n; q++ {
					ref := randomTrajectory(n, int64(ui)+7)
					rd := randomTrajectory(n, int64(ui)+7)
					fc := randomTrajectory(n, int64(ui)+7)
					ref.Apply1(u, q)
					rd.Apply1RD(u, q)
					carry := fc.Apply1RDCarry(u, q)
					samePsi(t, ref, rd, fmt.Sprintf("Apply1RD simd=%s u=%d q=%d", mode, ui, q))
					samePsi(t, ref, fc, fmt.Sprintf("Apply1RDCarry simd=%s u=%d q=%d", mode, ui, q))
					// Carry equals a fresh pass.
					var p0, p1 float64
					mask := 1 << (n - 1 - q)
					for base := 0; base < len(ref.Psi); base += mask << 1 {
						for i := base; i < base+mask; i++ {
							a0, a1 := ref.Psi[i], ref.Psi[i+mask]
							p0 += real(a0)*real(a0) + imag(a0)*imag(a0)
							p1 += real(a1)*real(a1) + imag(a1)*imag(a1)
						}
					}
					if carry.P0 != p0 || carry.P1 != p1 {
						t.Fatalf("simd=%s u=%d q=%d: carry (%v,%v) != fresh pass (%v,%v)", mode, ui, q, carry.P0, carry.P1, p0, p1)
					}
				}
			}
		})
	}
}

// TestNegateBothMatchesApply2CZ pins NegateBoth — the span kernel at one
// lane, so periods 2..16 reach its AVX2 body — to the reference Apply2 of
// the CZ on every SIMD tier the host has.
func TestNegateBothMatchesApply2CZ(t *testing.T) {
	const n = 5
	cz := CZ()
	if !IsCZ(cz) {
		t.Fatal("IsCZ must recognize the CZ matrix")
	}
	if IsCZ(Identity(4)) || IsCZ(Hadamard()) {
		t.Fatal("IsCZ must reject non-CZ matrices")
	}
	for _, mode := range simdModes() {
		withSIMD(mode, func() {
			for qa := 0; qa < n; qa++ {
				for qb := 0; qb < n; qb++ {
					if qa == qb {
						continue
					}
					ref := randomTrajectory(n, int64(qa*n+qb))
					cmp := randomTrajectory(n, int64(qa*n+qb))
					ref.Apply2(cz, qa, qb)
					cmp.NegateBoth(qa, qb)
					samePsi(t, ref, cmp, fmt.Sprintf("CZ simd=%s (%d,%d)", mode, qa, qb))
				}
			}
		})
	}
}

// TestChannelTablePinnedToDenseReference pins the hoisted-channel density
// kernel to the dense lifted Kraus sum at 1e-12 (and bitwise to
// ApplyKraus1).
func TestChannelTablePinnedToDenseReference(t *testing.T) {
	const n = 3
	for name, ops := range testChannels() {
		for q := 0; q < n; q++ {
			ref := NewDensity(n)
			cmp := NewDensity(n)
			// A correlated non-trivial state.
			for _, d := range []*Density{ref, cmp} {
				d.Apply1(Hadamard(), 0)
				d.Apply2(CZ(), 0, 1)
				d.Apply1(RX(0.6), 2)
				d.Apply1(REquator(0.9, 1.3), 1)
			}
			ref.ApplyKraus1(ops, q)
			cmp.ApplyChannel(NewChannelTable(ops), q)
			for i := range ref.Rho.Data {
				if ref.Rho.Data[i] != cmp.Rho.Data[i] {
					t.Fatalf("%s q=%d: density ApplyChannel not bit-identical at %d", name, q, i)
				}
			}
			// Dense reference: ρ' = Σ K ρ K† with lifted operators.
			dense := NewDensity(n)
			dense.Apply1(Hadamard(), 0)
			dense.Apply2(CZ(), 0, 1)
			dense.Apply1(RX(0.6), 2)
			dense.Apply1(REquator(0.9, 1.3), 1)
			out := NewMatrix(dense.Rho.N)
			for _, k := range ops {
				lk := Embed(k, q, n)
				out = out.Add(lk.Mul(dense.Rho).Mul(lk.Dagger()))
			}
			if d := out.MaxAbsDiff(cmp.Rho); d > 1e-12 {
				t.Fatalf("%s q=%d: deviates from dense Kraus sum by %g", name, q, d)
			}
		}
	}
}

// TestRunScheduleMatchesSequential executes compiled schedules — with
// carry links in every supported configuration, including the wrap-around
// carry across consecutive shots — against the equivalent sequence of
// un-compiled calls, requiring bitwise-equal states, outcomes, and PRNG
// positions.
func TestRunScheduleMatchesSequential(t *testing.T) {
	const n = 5
	chans := testChannels()
	deco := func(name string) *ChannelTable { return NewChannelTable(chans[name]) }
	x180 := REquator(0, math.Pi)
	ops := []SchedOp{
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-huge"), CarryFor: -1},
		{Kind: SchedApply1RD, Q: 0, U: x180, CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-short"), CarryFor: 1},
		{Kind: SchedChannel, Q: 1, Ch: deco("decoherence-short"), CarryFor: 4},
		{Kind: SchedCZ, Q: 1, Qb: 0, U: CZ()},
		{Kind: SchedChannel, Q: 4, Ch: deco("decoherence-long"), CarryFor: -1},
		{Kind: SchedApply1, Q: 2, U: RZ(0.4).Mul(RX(0.3)), CarryFor: 2},
		{Kind: SchedChannel, Q: 2, Ch: deco("depolarizing"), CarryFor: 3},
		{Kind: SchedMeasure, Q: 3, CarryFor: 3},
		{Kind: SchedChannel, Q: 3, Ch: deco("decoherence-short"), CarryFor: -1},
		{Kind: SchedApply2, Q: 0, Qb: 2, U: Embedded2ForTest(), CarryFor: -1},
		{Kind: SchedChannel, Q: 1, Ch: deco("damping-jump-first"), CarryFor: 1},
		{Kind: SchedMeasure, Q: 1, CarryFor: -1},
		// Trailing channel carrying for the wrap-around consumer (step 0).
		{Kind: SchedChannel, Q: 2, Ch: deco("decoherence-long"), CarryFor: 0},
	}
	for seed := int64(1); seed <= 25; seed++ {
		ref := randomTrajectory(n, seed)
		cmp := randomTrajectory(n, seed)
		var refOut, cmpOut []int
		carry, carryQ := PopCarry{}, -1
		for shot := 0; shot < 3; shot++ {
			for _, o := range ops {
				switch o.Kind {
				case SchedApply1, SchedApply1RD:
					ref.Apply1(o.U, int(o.Q))
				case SchedChannel:
					ref.ApplyKraus1(o.Ch.Ops(), int(o.Q))
				case SchedCZ, SchedApply2:
					ref.Apply2(o.U, int(o.Q), int(o.Qb))
				case SchedMeasure:
					refOut = append(refOut, ref.Measure(int(o.Q), rand.New(ref.src)))
				}
			}
			carry, carryQ = cmp.RunSchedule(ops, carry, carryQ, func(q, outcome int) {
				cmpOut = append(cmpOut, outcome)
			})
		}
		if len(refOut) != len(cmpOut) {
			t.Fatalf("seed %d: outcome counts differ: %d vs %d", seed, len(refOut), len(cmpOut))
		}
		for i := range refOut {
			if refOut[i] != cmpOut[i] {
				t.Fatalf("seed %d: outcome %d differs: %d vs %d", seed, i, refOut[i], cmpOut[i])
			}
		}
		samePsi(t, ref, cmp, fmt.Sprintf("schedule seed=%d", seed))
		sameRNG(t, ref, cmp, fmt.Sprintf("schedule seed=%d", seed))
	}
}

// Embedded2ForTest returns a dense two-qubit unitary.
func Embedded2ForTest() Matrix {
	return Identity(2).Kron(Hadamard())
}

func cAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// TestCompiledKernelsDoNotAllocate pins the zero-allocation discipline of
// every compiled-schedule kernel.
func TestCompiledKernelsDoNotAllocate(t *testing.T) {
	const n = 5
	tr := randomTrajectory(n, 1)
	ct := NewChannelTable(DecoherenceChannel(8e-6, DefaultQubitParams()))
	u := REquator(0.3, 1.0)
	ops := []SchedOp{
		{Kind: SchedChannel, Q: 0, Ch: ct, CarryFor: 1},
		{Kind: SchedChannel, Q: 1, Ch: ct, CarryFor: 1},
		{Kind: SchedApply1RD, Q: 1, U: u, CarryFor: 1},
		{Kind: SchedChannel, Q: 1, Ch: ct, CarryFor: -1},
		{Kind: SchedCZ, Q: 0, Qb: 1, U: CZ()},
		{Kind: SchedMeasure, Q: 2, CarryFor: -1},
	}
	measure := func(q, outcome int) {}
	// The one-qubit register runs RunSchedule's register-resident body.
	for _, c := range []struct {
		tr  *Trajectory
		ops []SchedOp
	}{{tr, ops}, {randomTrajectory(1, 1), batchTestSchedule1()}} {
		carry, carryQ := PopCarry{}, -1
		allocs := testing.AllocsPerRun(200, func() {
			carry, carryQ = c.tr.RunSchedule(c.ops, carry, carryQ, measure)
		})
		if allocs != 0 {
			t.Fatalf("RunSchedule on %d qubits allocates %v times per shot, want 0", c.tr.NumQubits(), allocs)
		}
	}
}
