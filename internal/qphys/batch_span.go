package qphys

// batch_span.go — the span primitives of the lockstep batched executor.
//
// The lane-minor amplitude block of an L-lane batch stores amplitude i
// of lane l at flat index i·L+l, so rows i..i+n-1 are n·L consecutive
// complex128s and the lane of flat element j is j mod L. Per-lane
// values (scale coefficients, population accumulators) use the
// DUPLICATED layout: a []float64 of length 2L where lane l's value
// occupies slots 2l and 2l+1. That layout makes the per-lane value
// stream exactly congruent with a row's float64 stream — flat float64
// index f belongs to lane (f/2) mod L, i.e. to duplicated slot
// f mod 2L — so a SIMD kernel walks amplitudes and per-lane values
// with one rolling cursor and no shuffles, and the pure-Go bodies walk
// them with one wrapped counter. Writers of duplicated arrays must
// keep the pair equal where a SIMD kernel will read it; accumulating
// SIMD kernels update both slots with identical values, pure-Go bodies
// update slot 2l only, and every reader uses slot 2l — both
// conventions satisfy it.
//
// Every single-qubit kernel of the scalar executor is, on this layout,
// ONE pass over the whole amplitude block in which the per-lane
// coefficient pair (lo-half vs hi-half of qubit q) alternates every
// mask·L elements and the accumulator pair (lo vs hi of the carry
// target) alternates every nmask·L elements. The primitives therefore
// take whole blocks with the two swap periods as arguments — one call
// per schedule op, never one call per bit-block — and handle the
// periods independently; passing the same slice for both members of a
// pair pins that stream (its swap becomes a no-op), which covers every
// mask-nesting sub-case of the scalar kernels with one code path.
//
// spanAntiLane is the one primitive that walks a single lane: an
// anti-diagonal jump is a per-lane event, so it visits only lane l's
// strided column and takes that lane's operator entries as arguments.
//
// spanApply1RDBlocks and spanNegBothBlocks are also the scalar
// executor's kernels: Trajectory.Apply1RD and NegateBoth call them at
// one lane (L = 1), so both executors share each loop and its SIMD
// bodies.
//
// Each primitive has a pure-Go body, the bit-for-bit reference, and
// SIMD bodies in span_amd64.s: AVX2 for every primitive, AVX-512 for
// all but negBoth and the anti walk, and 8-lane ZMM specializations of
// the scale, acc, scale+acc and collapse passes. The host's tiers are
// resolved once at package init (useSIMD, useSIMD512); per call each
// wrapper checks its bodies' lane-count preconditions, widest tier
// first, and otherwise takes the Go body (odd L always does, except in
// the anti walk, whose AVX2 body has no lane-count precondition). These
// wrappers are the only readers of the tier flags — the executor in
// batch.go never asks which body runs. The assembly is constrained to
// be bitwise-identical to the Go bodies: every float op is an IEEE-754
// binary64 mul/add/sub in round-to-nearest with no FMA contraction
// (VMULPD/VADDPD/VADDSUBPD — the gc compiler never contracts on amd64
// either), and sums the Go body forms as a+b may be formed as b+a
// (IEEE addition is commutative in value and bits for the non-NaN
// inputs these kernels see). Setting QUMA_NOSIMD=1 in the environment
// forces the Go bodies.

import (
	"math"
	"os"
)

// spanScaleBlocks multiplies each element's parts by its lane's
// current coefficient, the coefficient pair (cA, cB) swapping every
// blkC elements starting on cA: the no-carry scaling pass of the
// scalar channel kernels (blkC = mask·L). blkC must divide len(span)
// and be a multiple of the row length len(cA)/2.
func spanScaleBlocks(span []complex128, cA, cB []float64, blkC int) {
	if useSIMD512 && len(cA) == 16 {
		spanScaleBlocksZ8(span, cA, cB, blkC)
		return
	}
	if useSIMD512 && len(cA)&7 == 0 {
		spanScaleBlocksAVX512(span, cA, cB, blkC)
		return
	}
	if useSIMD && len(cA)&3 == 0 {
		spanScaleBlocksASM(span, cA, cB, blkC)
		return
	}
	k, leftC := 0, blkC
	for j, a := range span {
		c := cA[k]
		span[j] = complex(real(a)*c, imag(a)*c)
		if k += 2; k == len(cA) {
			k = 0
		}
		if leftC--; leftC == 0 {
			cA, cB = cB, cA
			leftC = blkC
		}
	}
}

// spanAccBlocks accumulates each element's |a|² into its lane's slot
// of the current accumulator, the pair (aA, aB) swapping every blkA
// elements starting on aA — the population pass of the scalar kernels
// (blkA = mask·L: lo rows feed aA, hi rows feed aB), per lane in the
// scalar addition order (each accumulator sees its elements in
// ascending index order).
func spanAccBlocks(span []complex128, aA, aB []float64, blkA int) {
	if useSIMD512 && len(aA) == 16 && &aA[0] != &aB[0] {
		spanAccBlocksZ8(span, aA, aB, blkA)
		return
	}
	if useSIMD512 && len(aA)&7 == 0 {
		spanAccBlocksAVX512(span, aA, aB, blkA)
		return
	}
	if useSIMD && len(aA)&3 == 0 {
		spanAccBlocksASM(span, aA, aB, blkA)
		return
	}
	k, leftA := 0, blkA
	for _, a := range span {
		aA[k] += real(a)*real(a) + imag(a)*imag(a)
		if k += 2; k == len(aA) {
			k = 0
		}
		if leftA--; leftA == 0 {
			aA, aB = aB, aA
			leftA = blkA
		}
	}
}

// spanScaleAccBlocks is spanScaleBlocks fused with spanAccBlocks over
// the scaled values — the fused apply+carry pass of the scalar channel
// kernels, covering all three mask-nesting sub-cases: blkC = mask·L,
// blkA = nmask·L, each stream swapping at its own period.
func spanScaleAccBlocks(span []complex128, cA, cB, aA, aB []float64, blkC, blkA int) {
	if useSIMD512 && len(cA) == 16 && &aA[0] != &aB[0] {
		spanScaleAccBlocksZ8(span, cA, cB, aA, aB, blkC, blkA)
		return
	}
	if useSIMD512 && len(cA)&7 == 0 {
		spanScaleAccBlocksAVX512(span, cA, cB, aA, aB, blkC, blkA)
		return
	}
	if useSIMD && len(cA)&3 == 0 {
		spanScaleAccBlocksASM(span, cA, cB, aA, aB, blkC, blkA)
		return
	}
	k, leftC, leftA := 0, blkC, blkA
	for j, a := range span {
		c := cA[k]
		re, im := real(a)*c, imag(a)*c
		span[j] = complex(re, im)
		aA[k] += re*re + im*im
		if k += 2; k == len(cA) {
			k = 0
		}
		if leftC--; leftC == 0 {
			cA, cB = cB, cA
			leftC = blkC
		}
		if leftA--; leftA == 0 {
			aA, aB = aB, aA
			leftA = blkA
		}
	}
}

// spanApply1RDBlocks applies a real-diagonal 2×2 unitary to every
// amplitude pair of the block: elements j and j+maskL of each
// 2·maskL-element group form a pair (maskL = mask·L) — Apply1RD's
// pair update with the coefficients uniform across lanes.
func spanApply1RDBlocks(span []complex128, maskL int, r00, r11 float64, u01, u10 complex128) {
	if useSIMD512 && maskL&3 == 0 {
		spanApply1RDBlocksAVX512(span, maskL, r00, r11, real(u01), imag(u01), real(u10), imag(u10))
		return
	}
	if useSIMD && maskL&1 == 0 {
		spanApply1RDBlocksASM(span, maskL, r00, r11, real(u01), imag(u01), real(u10), imag(u10))
		return
	}
	for base := 0; base < len(span); base += maskL << 1 {
		lo := span[base : base+maskL : base+maskL]
		hi := span[base+maskL : base+maskL+maskL : base+maskL+maskL]
		for j, a0 := range lo {
			a1 := hi[j]
			x := u01 * a1
			y := u10 * a0
			lo[j] = complex(real(a0)*r00+real(x), imag(a0)*r00+imag(x))
			hi[j] = complex(real(y)+real(a1)*r11, imag(y)+imag(a1)*r11)
		}
	}
}

// spanAntiLane applies an anti-diagonal 2×2 operator to lane l alone:
// in each 2·mL-element group, the lane's elements p in the lo half
// (every L-th, starting at l) pair with p+mL, and the pair becomes
// (c01·a1, c10·a0) — the scalar channel tail's anti kernel on one
// strided column of the lane-minor layout. The AVX2 body walks the same
// pairs in the same order, one pair per YMM, and has no lane-count
// precondition.
func spanAntiLane(span []complex128, l, L, mL int, c01, c10 complex128) {
	if useSIMD {
		spanAntiLaneASM(span, l, L, mL, real(c01), imag(c01), real(c10), imag(c10))
		return
	}
	for base := l; base < len(span); base += mL << 1 {
		for p := base; p < base+mL; p += L {
			span[p], span[p+mL] = c01*span[p+mL], c10*span[p]
		}
	}
}

// spanCollapseBlocks is the batched measurement collapse: each
// element is scaled by its lane's coefficient (1/√p) and then masked
// by its lane's keep-mask for the current half — all-ones bits keep
// the scaled value untouched, all-zero bits force an exact +0, the
// literal zero the scalar collapse stores into the discarded half.
// The mask pair (mA, mB) swaps every blk elements starting on mA
// (blk = mask·L: lo rows use mA, hi rows mB); the coefficient stream
// never swaps. |new|² accumulates into acc per lane in ascending
// index order; masked elements contribute an exact +0, which never
// perturbs a non-negative partial sum, so acc finishes bit-equal to
// the scalar kept-half-only accumulation.
func spanCollapseBlocks(span []complex128, cc []float64, mA, mB []uint64, acc []float64, blk int) {
	if useSIMD512 && len(cc) == 16 {
		spanCollapseBlocksZ8(span, cc, mA, mB, acc, blk)
		return
	}
	if useSIMD512 && len(cc)&7 == 0 {
		spanCollapseBlocksAVX512(span, cc, mA, mB, acc, blk)
		return
	}
	if useSIMD && len(cc)&3 == 0 {
		spanCollapseBlocksASM(span, cc, mA, mB, acc, blk)
		return
	}
	k, left := 0, blk
	for j, a := range span {
		c := cc[k]
		m := mA[k]
		re := math.Float64frombits(math.Float64bits(real(a)*c) & m)
		im := math.Float64frombits(math.Float64bits(imag(a)*c) & m)
		span[j] = complex(re, im)
		acc[k] += re*re + im*im
		if k += 2; k == len(cc) {
			k = 0
		}
		if left--; left == 0 {
			mA, mB = mB, mA
			left = blk
		}
	}
}

// spanNegBothBlocks negates the CZ-selected elements of the block:
// within each 2·hiL group's hi half, every other loL-element run
// starting loL in (the elements whose indices have both control bits
// set, times L). Negation is a sign-bit flip — exact in IEEE-754 — so
// the SIMD body (VXORPD with the sign mask) is trivially bit-identical.
func spanNegBothBlocks(span []complex128, hiL, loL int) {
	if useSIMD && loL&1 == 0 {
		spanNegBothBlocksASM(span, hiL, loL)
		return
	}
	for a := hiL; a < len(span); a += hiL << 1 {
		for c := a + loL; c < a+hiL; c += loL << 1 {
			seg := span[c : c+loL : c+loL]
			for j := range seg {
				seg[j] = -seg[j]
			}
		}
	}
}

// simdDisabled reports the environment kill switch, read once at init.
func simdDisabled() bool { return os.Getenv("QUMA_NOSIMD") != "" }
