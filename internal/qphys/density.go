package qphys

import (
	"fmt"
	"math"
	"math/rand"
)

// Density is the density matrix of an n-qubit register. Qubit 0 is the
// most significant bit of the basis index. The register starts in |0…0⟩.
// It is the exact backend: channels are applied as full Kraus sums, so a
// single run reproduces ensemble averages, at O(4^n) memory.
type Density struct {
	nq  int
	Rho Matrix
	// scratchA/scratchB are reusable full-register buffers for the dense
	// Apply/ApplyKraus paths, allocated lazily and kept across calls so
	// steady-state evolution does not touch the heap. The single- and
	// two-qubit kernels in kernels.go update ρ block-locally and need no
	// scratch at all.
	scratchA, scratchB Matrix
}

// NewDensity returns an n-qubit register initialized to |0…0⟩⟨0…0|.
func NewDensity(n int) *Density {
	if n < 1 || n > 10 {
		panic(fmt.Sprintf("qphys: unsupported register size %d", n))
	}
	rho := NewMatrix(1 << n)
	rho.Data[0] = 1
	return &Density{nq: n, Rho: rho}
}

// NumQubits returns the register size.
func (d *Density) NumQubits() int { return d.nq }

// Reset returns the register to |0…0⟩.
func (d *Density) Reset() {
	for i := range d.Rho.Data {
		d.Rho.Data[i] = 0
	}
	d.Rho.Data[0] = 1
}

// Dim returns the Hilbert-space dimension 2^n.
func (d *Density) Dim() int { return d.Rho.N }

// scratch returns the two full-register scratch matrices, (re)allocating
// them on first use.
func (d *Density) scratch() (a, b Matrix) {
	if d.scratchA.N != d.Rho.N {
		d.scratchA = NewMatrix(d.Rho.N)
		d.scratchB = NewMatrix(d.Rho.N)
	}
	return d.scratchA, d.scratchB
}

// Apply conjugates the state by a full-register unitary: ρ ← UρU†.
// Single- and two-qubit gates should use the Apply1/Apply2 kernels, which
// are O(4^n) instead of O(8^n).
func (d *Density) Apply(u Matrix) {
	if u.N != d.Rho.N {
		panic(fmt.Sprintf("qphys: unitary dim %d does not match register dim %d", u.N, d.Rho.N))
	}
	tmp, _ := d.scratch()
	mulInto(tmp, u, d.Rho)              // tmp = u·ρ
	mulDaggerInto(d.Rho, tmp, u, false) // ρ = tmp·u†
}

// ApplyKraus applies a quantum channel given by Kraus operators on the
// full register: ρ ← Σ_k K_k ρ K_k†. Single-qubit channels should use the
// ApplyKraus1 kernel instead.
func (d *Density) ApplyKraus(ops []Matrix) {
	tmp, acc := d.scratch()
	for i := range acc.Data {
		acc.Data[i] = 0
	}
	for _, k := range ops {
		if k.N != d.Rho.N {
			panic(fmt.Sprintf("qphys: Kraus dim %d does not match register dim %d", k.N, d.Rho.N))
		}
		mulInto(tmp, k, d.Rho)           // tmp = K·ρ
		mulDaggerInto(acc, tmp, k, true) // acc += tmp·K†
	}
	copy(d.Rho.Data, acc.Data)
}

// Trace returns Tr(ρ), which must stay 1 for any physical evolution.
func (d *Density) Trace() float64 { return real(d.Rho.Trace()) }

// Purity returns Tr(ρ²) ∈ (0, 1]; 1 means a pure state.
func (d *Density) Purity() float64 { return real(d.Rho.Mul(d.Rho).Trace()) }

// ProbExcited returns the probability of reading qubit q as |1⟩.
func (d *Density) ProbExcited(q int) float64 {
	n := d.Rho.N
	bit := d.nq - 1 - q
	var p float64
	for i := 0; i < n; i++ {
		if (i>>bit)&1 == 1 {
			p += real(d.Rho.Data[i*n+i])
		}
	}
	return clampProb(p)
}

// ExpectationZ returns ⟨Z⟩ for qubit q.
func (d *Density) ExpectationZ(q int) float64 {
	return 1 - 2*d.ProbExcited(q)
}

// Measure performs a projective measurement of qubit q in the logical
// basis using the supplied PRNG, collapses the state, and returns the
// binary outcome. This models the back-action of the dispersive readout;
// the analog trace and discrimination error live in the readout package.
func (d *Density) Measure(q int, rng *rand.Rand) int {
	p1 := d.ProbExcited(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	d.Project(q, outcome)
	return outcome
}

// Project collapses qubit q onto the given outcome and renormalizes.
// If the outcome has (numerically) zero probability the register is left
// in the projected-and-renormalized-by-epsilon state closest to it.
func (d *Density) Project(q, outcome int) {
	n := d.Rho.N
	bit := d.nq - 1 - q
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i>>bit)&1 != outcome || (j>>bit)&1 != outcome {
				d.Rho.Data[i*n+j] = 0
			}
		}
	}
	tr := d.Trace()
	if tr < 1e-15 {
		// Measurement outcome had zero probability; reset to the basis
		// state consistent with the outcome.
		d.Reset()
		if outcome == 1 {
			d.Apply1(PauliX(), q)
		}
		return
	}
	inv := complex(1/tr, 0)
	for i := range d.Rho.Data {
		d.Rho.Data[i] *= inv
	}
}

// BlochVector returns the (x, y, z) Bloch coordinates of qubit q,
// tracing out all other qubits.
func (d *Density) BlochVector(q int) (x, y, z float64) {
	r := d.ReducedQubit(q)
	x = 2 * real(r.At(0, 1))
	y = 2 * imag(r.At(1, 0))
	z = real(r.At(0, 0)) - real(r.At(1, 1))
	return
}

// ReducedQubit returns the 2×2 reduced density matrix of qubit q.
func (d *Density) ReducedQubit(q int) Matrix {
	out := NewMatrix(2)
	n := d.Rho.N
	bit := d.nq - 1 - q
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Keep only elements where all other qubits agree.
			if (i &^ (1 << bit)) != (j &^ (1 << bit)) {
				continue
			}
			out.Data[((i>>bit)&1)*2+((j>>bit)&1)] += d.Rho.Data[i*n+j]
		}
	}
	return out
}

// Fidelity01 returns the overlap of qubit q's reduced state with |1⟩,
// i.e. the quantity the AllXY experiment estimates.
func (d *Density) Fidelity01(q int) float64 { return d.ProbExcited(q) }

// clampProb clamps a probability to [0, 1]: NaN stays NaN (math.NaN's
// bits) and every zero becomes +0, exactly as math.Min(1, math.Max(0,
// p)) does, but with plain compares that inline where math.Max's
// out-of-line assembly does not.
func clampProb(p float64) float64 {
	switch {
	case p > 1:
		return 1
	case p > 0:
		return p
	case p == p:
		return 0
	}
	return math.NaN()
}
