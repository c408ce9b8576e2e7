package qphys

import (
	"fmt"
	"math/cmplx"
)

// In-place sparse gate kernels. A gate on k qubits of an n-qubit register
// only couples basis-index pairs that differ on those k bits, so ρ can be
// updated block-by-block: every 2^k×2^k sub-block of ρ addressed by the
// affected bits transforms independently as B ← U·B·U†. That replaces the
// Embed-then-dense-multiply path (three O(8^n) matmuls plus the O(4^n)
// embedding) with a single O(4^n) pass for single-qubit gates, with zero
// heap allocation in steady state.

// maxKraus1 is the largest operator count the allocation-free single-qubit
// channel kernel handles on the stack; DecoherenceChannel produces at most
// 8 operators. Larger sets fall back to the dense lifted path in
// ApplyKraus1; NewChannelTable rejects them.
const maxKraus1 = 16

// Apply1 applies a single-qubit unitary to qubit q in place: for every
// index pair (i0, i1) differing only in q's bit, the 2×2 block of ρ is
// conjugated by u. O(4^n), no allocation.
func (d *Density) Apply1(u Matrix, q int) {
	if u.N != 2 {
		panic("qphys: Apply1 requires a single-qubit gate")
	}
	if q < 0 || q >= d.nq {
		panic(fmt.Sprintf("qphys: Apply1 qubit %d out of range 0..%d", q, d.nq-1))
	}
	dim := d.Rho.N
	mask := 1 << (d.nq - 1 - q)
	u00, u01, u10, u11 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	c00, c01 := cmplx.Conj(u00), cmplx.Conj(u01)
	c10, c11 := cmplx.Conj(u10), cmplx.Conj(u11)
	rho := d.Rho.Data
	for i0 := 0; i0 < dim; i0++ {
		if i0&mask != 0 {
			continue
		}
		r0 := i0 * dim
		r1 := (i0 | mask) * dim
		for j0 := 0; j0 < dim; j0++ {
			if j0&mask != 0 {
				continue
			}
			j1 := j0 | mask
			b00, b01 := rho[r0+j0], rho[r0+j1]
			b10, b11 := rho[r1+j0], rho[r1+j1]
			// a = u·B, then B' = a·u†.
			a00 := u00*b00 + u01*b10
			a01 := u00*b01 + u01*b11
			a10 := u10*b00 + u11*b10
			a11 := u10*b01 + u11*b11
			rho[r0+j0] = a00*c00 + a01*c01
			rho[r0+j1] = a00*c10 + a01*c11
			rho[r1+j0] = a10*c00 + a11*c01
			rho[r1+j1] = a10*c10 + a11*c11
		}
	}
}

// Apply2 applies a two-qubit unitary to qubits (qa, qb) in place: every
// 4×4 block of ρ addressed by the two affected bits is conjugated by u.
// The basis order of u matches Embed2: index = bit(qa)·2 + bit(qb), so qa
// is the control of CNOT. O(4^n·16), no allocation.
func (d *Density) Apply2(u Matrix, qa, qb int) {
	if u.N != 4 {
		panic("qphys: Apply2 requires a two-qubit gate")
	}
	if qa == qb {
		panic("qphys: Apply2 requires distinct qubits")
	}
	n := d.nq
	if qa < 0 || qa >= n || qb < 0 || qb >= n {
		panic(fmt.Sprintf("qphys: Apply2 qubits (%d,%d) out of range 0..%d", qa, qb, n-1))
	}
	dim := d.Rho.N
	ma := 1 << (n - 1 - qa)
	mb := 1 << (n - 1 - qb)
	both := ma | mb
	off := [4]int{0, mb, ma, ma | mb}
	var uc [4][4]complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			uc[i][j] = cmplx.Conj(u.Data[i*4+j])
		}
	}
	rho := d.Rho.Data
	for ibase := 0; ibase < dim; ibase++ {
		if ibase&both != 0 {
			continue
		}
		var rows [4]int
		for s := 0; s < 4; s++ {
			rows[s] = (ibase | off[s]) * dim
		}
		for jbase := 0; jbase < dim; jbase++ {
			if jbase&both != 0 {
				continue
			}
			var cols [4]int
			for t := 0; t < 4; t++ {
				cols[t] = jbase | off[t]
			}
			var b, a [4][4]complex128
			for s := 0; s < 4; s++ {
				for t := 0; t < 4; t++ {
					b[s][t] = rho[rows[s]+cols[t]]
				}
			}
			for s := 0; s < 4; s++ {
				us := u.Data[s*4:]
				for t := 0; t < 4; t++ {
					a[s][t] = us[0]*b[0][t] + us[1]*b[1][t] + us[2]*b[2][t] + us[3]*b[3][t]
				}
			}
			for s := 0; s < 4; s++ {
				for t := 0; t < 4; t++ {
					ct := &uc[t]
					rho[rows[s]+cols[t]] = a[s][0]*ct[0] + a[s][1]*ct[1] + a[s][2]*ct[2] + a[s][3]*ct[3]
				}
			}
		}
	}
}

// ApplyKraus1 applies a single-qubit channel ρ ← Σ_k K_k ρ K_k† to qubit
// q in place. Like Apply1 the update is local to 2×2 blocks, and the sum
// over operators is accumulated per block, so no scratch matrix is
// needed. O(4^n·len(ops)), no allocation for len(ops) ≤ 16.
func (d *Density) ApplyKraus1(ops []Matrix, q int) {
	if q < 0 || q >= d.nq {
		panic(fmt.Sprintf("qphys: ApplyKraus1 qubit %d out of range 0..%d", q, d.nq-1))
	}
	for _, k := range ops {
		if k.N != 2 {
			panic("qphys: ApplyKraus1 requires single-qubit operators")
		}
	}
	if len(ops) > maxKraus1 {
		lifted := make([]Matrix, len(ops))
		for i, k := range ops {
			lifted[i] = Embed(k, q, d.nq)
		}
		d.ApplyKraus(lifted)
		return
	}
	var kd, kc [maxKraus1][4]complex128
	for i, k := range ops {
		for e := 0; e < 4; e++ {
			kd[i][e] = k.Data[e]
			kc[i][e] = cmplx.Conj(k.Data[e])
		}
	}
	d.applyKraus1Tables(kd[:len(ops)], kc[:len(ops)], q)
}

// applyKraus1Tables is the 2×2 block kernel shared by ApplyKraus1 (which
// derives the entry/conjugate tables per call) and ApplyChannel (which
// reads them from a per-schedule ChannelTable): ρ ← Σ_k K_k ρ K_k† with
// the sum accumulated per block. Keeping one implementation is what
// keeps the two paths bit-identical by construction.
func (d *Density) applyKraus1Tables(kd, kc [][4]complex128, q int) {
	dim := d.Rho.N
	mask := 1 << (d.nq - 1 - q)
	rho := d.Rho.Data
	for i0 := 0; i0 < dim; i0++ {
		if i0&mask != 0 {
			continue
		}
		r0 := i0 * dim
		r1 := (i0 | mask) * dim
		for j0 := 0; j0 < dim; j0++ {
			if j0&mask != 0 {
				continue
			}
			j1 := j0 | mask
			b00, b01 := rho[r0+j0], rho[r0+j1]
			b10, b11 := rho[r1+j0], rho[r1+j1]
			var n00, n01, n10, n11 complex128
			for i := range kd {
				k00, k01, k10, k11 := kd[i][0], kd[i][1], kd[i][2], kd[i][3]
				c00, c01, c10, c11 := kc[i][0], kc[i][1], kc[i][2], kc[i][3]
				a00 := k00*b00 + k01*b10
				a01 := k00*b01 + k01*b11
				a10 := k10*b00 + k11*b10
				a11 := k10*b01 + k11*b11
				n00 += a00*c00 + a01*c01
				n01 += a00*c10 + a01*c11
				n10 += a10*c00 + a11*c01
				n11 += a10*c10 + a11*c11
			}
			rho[r0+j0] = n00
			rho[r0+j1] = n01
			rho[r1+j0] = n10
			rho[r1+j1] = n11
		}
	}
}
