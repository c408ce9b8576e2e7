package qphys

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"quma/internal/prng"
)

// Trajectory is a pure-state Monte-Carlo backend: it stores the 2^n
// statevector of an n-qubit register (qubit 0 is the most significant bit
// of the basis index) and unwinds every quantum channel by sampling a
// single Kraus operator per application, weighted by the Born rule. Each
// run is therefore one stochastic trajectory whose ensemble average over
// seeds reproduces the Density backend exactly, at O(2^n) instead of
// O(4^n) memory — repetition-code and RB-style scenarios scale past the
// density-matrix wall toward ~16 qubits.
//
// The unitary kernels are in-place block updates with the same zero-
// allocation discipline as the Density kernels (see kernels.go); the
// property tests in trajectory_test.go pin them to Density at 1e-12.
type Trajectory struct {
	nq  int
	Psi []complex128
	// src drives Kraus-operator sampling and the compiled executors'
	// measurements. It is bound at construction — the machine hands over
	// its deterministic generator — so a fixed seed fixes the whole
	// trajectory, which keeps sweep results bit-reproducible for any
	// worker count. It is the concrete type, not a rand.Source, so the
	// per-operation draws inline into the executors' loops.
	src *prng.Source
	// diagMemo caches the diagonality classification of the last Apply2
	// matrix by identity: the machine plays the same cached CZ on every
	// flux pulse, so the 16-entry scan runs once, not once per gate.
	diagMemo       *complex128
	diagMemoIsDiag bool
}

// maxTrajectoryQubits bounds the register size: 2^20 amplitudes (16 MiB)
// is still cheap, and the ISA's qubit masks stop at 16 anyway.
const maxTrajectoryQubits = 20

// NewTrajectorySource returns an n-qubit register initialized to |0…0⟩
// whose channel sampling draws from src. core.New binds the machine's
// generator here, and rand.New(src) serves the machine's other draws from
// the same stream.
func NewTrajectorySource(n int, src *prng.Source) *Trajectory {
	if n < 1 || n > maxTrajectoryQubits {
		panic(fmt.Sprintf("qphys: unsupported trajectory register size %d", n))
	}
	psi := make([]complex128, 1<<n)
	psi[0] = 1
	return &Trajectory{nq: n, Psi: psi, src: src}
}

// NewTrajectory is a thin wrapper for callers that hold a *rand.Rand:
// the register's own generator is seeded from one rng.Int63() draw, so
// its stream is derived from rng but is not rng's. Code that must share
// one stream between the register and other draws uses
// NewTrajectorySource.
func NewTrajectory(n int, rng *rand.Rand) *Trajectory {
	return NewTrajectorySource(n, prng.New(rng.Int63()))
}

// NumQubits returns the register size.
func (t *Trajectory) NumQubits() int { return t.nq }

// Dim returns the Hilbert-space dimension 2^n.
func (t *Trajectory) Dim() int { return len(t.Psi) }

// Reset returns the register to |0…0⟩.
func (t *Trajectory) Reset() {
	for i := range t.Psi {
		t.Psi[i] = 0
	}
	t.Psi[0] = 1
}

// Apply1 applies a single-qubit unitary to qubit q in place: for every
// amplitude pair differing only in q's bit, |ψ⟩ is updated by the 2×2
// block. Pairs are visited block-wise (all bit-0 indices are contiguous
// runs of length mask), so the loop carries no skip branch. O(2^n), no
// allocation.
func (t *Trajectory) Apply1(u Matrix, q int) {
	if u.N != 2 {
		panic("qphys: Apply1 requires a single-qubit gate")
	}
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: Apply1 qubit %d out of range 0..%d", q, t.nq-1))
	}
	mask := 1 << (t.nq - 1 - q)
	u00, u01, u10, u11 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	psi := t.Psi
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a0, a1 := psi[i], psi[i+mask]
			psi[i] = u00*a0 + u01*a1
			psi[i+mask] = u10*a0 + u11*a1
		}
	}
}

// Apply2 applies a two-qubit unitary to qubits (qa, qb) in place. The
// basis order of u matches Embed2: index = bit(qa)·2 + bit(qb), so qa is
// the control of CNOT. O(2^n·4), no allocation. Diagonal unitaries (the
// CZ flux pulse — the only two-qubit gate the machine's physical layer
// emits) take a one-multiply-per-amplitude fast path.
func (t *Trajectory) Apply2(u Matrix, qa, qb int) {
	if u.N != 4 {
		panic("qphys: Apply2 requires a two-qubit gate")
	}
	if qa == qb {
		panic("qphys: Apply2 requires distinct qubits")
	}
	if qa < 0 || qa >= t.nq || qb < 0 || qb >= t.nq {
		panic(fmt.Sprintf("qphys: Apply2 qubits (%d,%d) out of range 0..%d", qa, qb, t.nq-1))
	}
	ma := 1 << (t.nq - 1 - qa)
	mb := 1 << (t.nq - 1 - qb)
	psi := t.Psi
	isDiag := false
	if &u.Data[0] == t.diagMemo {
		isDiag = t.diagMemoIsDiag
	} else {
		isDiag = diag2(u)
		t.diagMemo, t.diagMemoIsDiag = &u.Data[0], isDiag
	}
	if isDiag {
		// Touch only the bit-pattern groups whose diagonal entry is not 1
		// (CZ touches a single group: the 2^(n-2) amplitudes with both
		// bits set), enumerating each group by walking the submasks of
		// the remaining bits.
		rest := (len(psi) - 1) &^ (ma | mb)
		for s, fixed := range [4]int{0, mb, ma, ma | mb} {
			d := u.Data[s*4+s]
			if d == 1 {
				continue
			}
			r := 0
			for {
				psi[r|fixed] *= d
				if r == rest {
					break
				}
				r = (r - rest) & rest
			}
		}
		return
	}
	both := ma | mb
	off := [4]int{0, mb, ma, ma | mb}
	for base := range psi {
		if base&both != 0 {
			continue
		}
		var a, out [4]complex128
		for s := 0; s < 4; s++ {
			a[s] = psi[base|off[s]]
		}
		for s := 0; s < 4; s++ {
			us := u.Data[s*4:]
			out[s] = us[0]*a[0] + us[1]*a[1] + us[2]*a[2] + us[3]*a[3]
		}
		for s := 0; s < 4; s++ {
			psi[base|off[s]] = out[s]
		}
	}
}

// diag2 reports whether a 4×4 unitary is diagonal.
func diag2(u Matrix) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && u.Data[i*4+j] != 0 {
				return false
			}
		}
	}
	return true
}

// ApplyKraus1 applies a single-qubit channel to qubit q by Monte-Carlo
// unraveling: operator K_k is selected with the Born probability
// p_k = ‖K_k|ψ⟩‖² (the operators must satisfy Σ K†K = I, so Σ p_k = 1)
// and the state becomes K_k|ψ⟩/√p_k. Exactly one PRNG variate is
// consumed per multi-operator channel. Exact in expectation over the
// bound PRNG. No allocation.
//
// Channels whose operators are all diagonal or anti-diagonal — every
// channel DecoherenceChannel builds (products of amplitude-damping and
// dephasing operators) and the depolarizing channel — take a fast path:
// the Born weight of such an operator depends only on the two per-bit
// populations, so one population pass prices every candidate (instead of
// one full state pass per candidate) and the sampled operator applies
// with one multiply per amplitude. A dense operator encountered during
// pricing falls back to the general per-operator-pass path, reusing the
// same variate.
func (t *Trajectory) ApplyKraus1(ops []Matrix, q int) {
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: ApplyKraus1 qubit %d out of range 0..%d", q, t.nq-1))
	}
	if len(ops) == 0 || ops[0].N != 2 {
		// Channels are homogeneous; checking the first operator keeps the
		// guard off the per-operator hot loop.
		panic("qphys: ApplyKraus1 requires single-qubit operators")
	}
	if len(ops) == 1 {
		// A single operator of a physical channel must be (a phase times)
		// a unitary; apply it directly without drawing a variate.
		t.Apply1(ops[0], q)
		return
	}
	mask := 1 << (t.nq - 1 - q)
	psi := t.Psi
	r := t.src.Float64()

	var p0, p1 float64
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a0, a1 := psi[i], psi[i+mask]
			p0 += real(a0)*real(a0) + imag(a0)*imag(a0)
			p1 += real(a1)*real(a1) + imag(a1)*imag(a1)
		}
	}
	cum := 0.0
	chosen := -1
	lastPositive := -1
	var lastP float64
	for ki := range ops {
		k := &ops[ki]
		diag := k.Data[1] == 0 && k.Data[2] == 0
		if !diag && (k.Data[0] != 0 || k.Data[3] != 0) {
			// Dense operator: re-sample with the general path and the
			// same variate (pricing so far mutated nothing).
			t.applyKrausDense(ops, mask, r)
			return
		}
		var p float64
		if diag {
			p = norm2(k.Data[0])*p0 + norm2(k.Data[3])*p1
		} else {
			p = norm2(k.Data[1])*p1 + norm2(k.Data[2])*p0
		}
		if p > 0 {
			lastPositive, lastP = ki, p
		}
		cum += p
		if r < cum {
			chosen, lastP = ki, p
			break
		}
	}
	if chosen < 0 {
		// Numerical leftover pushed the cumulative sum just below r; fall
		// back to the last operator with nonzero weight.
		if lastPositive < 0 {
			return
		}
		chosen = lastPositive
	}
	k := ops[chosen]
	rinv := 1 / math.Sqrt(lastP)
	inv := complex(rinv, 0)
	if k.Data[1] == 0 && k.Data[2] == 0 {
		if imag(k.Data[0]) == 0 && imag(k.Data[3]) == 0 {
			// Real coefficients (every channel DecoherenceChannel builds):
			// two real multiplies per amplitude instead of a complex one.
			// Identical except for the sign of zeros, which no |a|² term,
			// comparison, or downstream decision can observe.
			r0, r1 := real(k.Data[0])*rinv, real(k.Data[3])*rinv
			for base := 0; base < len(psi); base += mask << 1 {
				for i := base; i < base+mask; i++ {
					a := psi[i]
					psi[i] = complex(real(a)*r0, imag(a)*r0)
					b := psi[i+mask]
					psi[i+mask] = complex(real(b)*r1, imag(b)*r1)
				}
			}
			return
		}
		c0, c1 := k.Data[0]*inv, k.Data[3]*inv
		for base := 0; base < len(psi); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				psi[i] *= c0
				psi[i+mask] *= c1
			}
		}
	} else {
		c01, c10 := k.Data[1]*inv, k.Data[2]*inv
		for base := 0; base < len(psi); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				psi[i], psi[i+mask] = c01*psi[i+mask], c10*psi[i]
			}
		}
	}
}

func norm2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// applyKrausDense is the general Born-rule sampling path: one full state
// pass per candidate operator until the cumulative weight passes r.
func (t *Trajectory) applyKrausDense(ops []Matrix, mask int, r float64) {
	psi := t.Psi
	cum := 0.0
	chosen := -1
	lastPositive := -1
	var lastP float64
	for ki, k := range ops {
		k00, k01, k10, k11 := k.Data[0], k.Data[1], k.Data[2], k.Data[3]
		var p float64
		for base := 0; base < len(psi); base += mask << 1 {
			for i0 := base; i0 < base+mask; i0++ {
				i1 := i0 | mask
				a0, a1 := psi[i0], psi[i1]
				b0 := k00*a0 + k01*a1
				b1 := k10*a0 + k11*a1
				p += real(b0)*real(b0) + imag(b0)*imag(b0) +
					real(b1)*real(b1) + imag(b1)*imag(b1)
			}
		}
		if p > 0 {
			lastPositive, lastP = ki, p
		}
		cum += p
		if r < cum {
			chosen, lastP = ki, p
			break
		}
	}
	if chosen < 0 {
		if lastPositive < 0 {
			return
		}
		chosen = lastPositive
	}
	k := ops[chosen]
	k00, k01, k10, k11 := k.Data[0], k.Data[1], k.Data[2], k.Data[3]
	inv := complex(1/math.Sqrt(lastP), 0)
	for base := 0; base < len(psi); base += mask << 1 {
		for i0 := base; i0 < base+mask; i0++ {
			i1 := i0 | mask
			a0, a1 := psi[i0], psi[i1]
			psi[i0] = (k00*a0 + k01*a1) * inv
			psi[i1] = (k10*a0 + k11*a1) * inv
		}
	}
}

// ProbExcited returns the probability of reading qubit q as |1⟩.
func (t *Trajectory) ProbExcited(q int) float64 {
	mask := 1 << (t.nq - 1 - q)
	psi := t.Psi
	var p float64
	for base := mask; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a := psi[i]
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return clampProb(p)
}

// ExpectationZ returns ⟨Z⟩ for qubit q.
func (t *Trajectory) ExpectationZ(q int) float64 {
	return 1 - 2*t.ProbExcited(q)
}

// Measure performs a projective measurement of qubit q using the supplied
// PRNG, collapses the state, and returns the binary outcome. The outcome
// probability from the sampling pass is reused for the renormalization,
// so the whole measurement is two state passes (probability + collapse);
// compiled schedules skip the first via MeasureCarry when a fused
// kernel already carried the population.
func (t *Trajectory) Measure(q int, rng *rand.Rand) int {
	p1 := t.ProbExcited(q)
	outcome, _ := t.MeasureCarry(q, p1, rng.Float64(), false)
	return outcome
}

// Project collapses qubit q onto the given outcome and renormalizes. A
// (numerically) zero-probability outcome resets the register to the basis
// state consistent with it, mirroring Density.Project.
func (t *Trajectory) Project(q, outcome int) {
	bit := t.nq - 1 - q
	var p float64
	for i, a := range t.Psi {
		if (i>>bit)&1 == outcome {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	t.projectWithProb(q, outcome, p)
}

// projectWithProb is Project with the outcome probability already known
// (Measure reuses the probability from its sampling pass).
func (t *Trajectory) projectWithProb(q, outcome int, p float64) {
	if p < 1e-15 {
		t.Reset()
		if outcome == 1 {
			t.Apply1(PauliX(), q)
		}
		return
	}
	mask := 1 << (t.nq - 1 - q)
	psi := t.Psi
	// The renormalization factor is real, so scale the parts directly
	// (differs from the complex multiply only in the sign of zeros, which
	// nothing downstream can observe).
	rinv := 1 / math.Sqrt(p)
	for base := 0; base < len(psi); base += mask << 1 {
		if outcome == 0 {
			for i := base; i < base+mask; i++ {
				a := psi[i]
				psi[i] = complex(real(a)*rinv, imag(a)*rinv)
				psi[i+mask] = 0
			}
		} else {
			for i := base; i < base+mask; i++ {
				psi[i] = 0
				a := psi[i+mask]
				psi[i+mask] = complex(real(a)*rinv, imag(a)*rinv)
			}
		}
	}
}

// Norm returns ‖ψ‖, which must stay 1 for any physical evolution.
func (t *Trajectory) Norm() float64 {
	var s float64
	for _, a := range t.Psi {
		s += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(s)
}

// Purity returns Tr(ρ²) of the represented state: 1 for any normalized
// pure state, so this reports (‖ψ‖²)² and flags norm drift.
func (t *Trajectory) Purity() float64 {
	n := t.Norm()
	return n * n * n * n
}

// ReducedQubit returns the 2×2 reduced density matrix of qubit q.
func (t *Trajectory) ReducedQubit(q int) Matrix {
	out := NewMatrix(2)
	bit := t.nq - 1 - q
	for i, a := range t.Psi {
		if a == 0 {
			continue
		}
		j := i ^ (1 << bit)
		ib := (i >> bit) & 1
		out.Data[ib*2+ib] += a * cmplx.Conj(a)
		if b := t.Psi[j]; b != 0 {
			out.Data[ib*2+(1-ib)] += a * cmplx.Conj(b)
		}
	}
	return out
}

// DensityMatrix returns |ψ⟩⟨ψ| as a dense matrix — the bridge used by the
// property tests to compare against the Density backend.
func (t *Trajectory) DensityMatrix() Matrix {
	n := len(t.Psi)
	out := NewMatrix(n)
	for i, a := range t.Psi {
		if a == 0 {
			continue
		}
		for j, b := range t.Psi {
			out.Data[i*n+j] = a * cmplx.Conj(b)
		}
	}
	return out
}
