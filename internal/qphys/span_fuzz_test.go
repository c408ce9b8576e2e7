package qphys

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// spanFuzzInput hands out the fuzzer's bytes. The first bytes fix the
// shape of a case; floats are read from the remaining bytes while they
// last and then drawn from a PRNG seeded with a hash of all of them, so
// short inputs still fill whole registers.
type spanFuzzInput struct {
	b   []byte
	rng *rand.Rand
}

func newSpanFuzzInput(data []byte) *spanFuzzInput {
	h := fnv.New64a()
	h.Write(data)
	return &spanFuzzInput{b: data, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

func (in *spanFuzzInput) byte() byte {
	if len(in.b) == 0 {
		return byte(in.rng.Intn(256))
	}
	v := in.b[0]
	in.b = in.b[1:]
	return v
}

// float returns a finite value (zeros of either sign included) with a
// binary exponent in [-64, 63], so no sum or product the kernels form
// overflows, underflows or produces a NaN.
func (in *spanFuzzInput) float() float64 {
	var b [4]byte
	for i := range b {
		b[i] = in.byte()
	}
	sign := float64(1)
	if b[0]&0x80 != 0 {
		sign = -1
	}
	if b[0]&0x7f == 0 {
		return math.Copysign(0, sign)
	}
	mant := 1 + float64(uint32(b[1])<<16|uint32(b[2])<<8|uint32(b[3]))/(1<<24)
	return sign * math.Ldexp(mant, int(b[0]&0x7f)-64)
}

// dup returns a duplicated per-lane array: lane l's value in slots 2l
// and 2l+1, the layout every SIMD body reads.
func (in *spanFuzzInput) dup(L int) []float64 {
	d := make([]float64, 2*L)
	for l := 0; l < L; l++ {
		d[2*l] = in.float()
		d[2*l+1] = d[2*l]
	}
	return d
}

// keepMasks returns a duplicated keep-mask array, all-ones or all-zero
// per lane.
func (in *spanFuzzInput) keepMasks(L int) []uint64 {
	m := make([]uint64, 2*L)
	for l := 0; l < L; l++ {
		if in.byte()&1 != 0 {
			m[2*l], m[2*l+1] = ^uint64(0), ^uint64(0)
		}
	}
	return m
}

// spanFuzzState is the mutable output of one kernel call: the span and
// the accumulator pair (one slice when pinned).
type spanFuzzState struct {
	span   []complex128
	aA, aB []float64
}

func (s *spanFuzzState) clone() *spanFuzzState {
	c := &spanFuzzState{
		span: append([]complex128(nil), s.span...),
		aA:   append([]float64(nil), s.aA...),
	}
	c.aB = c.aA
	if &s.aB[0] != &s.aA[0] {
		c.aB = append([]float64(nil), s.aB...)
	}
	return c
}

// spanFuzzKernel is one primitive call over a state's buffers.
type spanFuzzKernel struct {
	name string
	run  func(s *spanFuzzState)
}

func sameFloatBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzSpanKernels pins every span primitive's SIMD bodies to its pure-Go
// body: fuzzer bytes choose an even lane count 2–16, a register size,
// the swap periods, amplitudes, coefficients, keep-masks and whether an
// accumulator or coefficient pair is one pinned slice. Each primitive
// runs through its wrapper on every tier the host has, so each body
// sees only inputs its wrapper admits, and must leave the span and
// every accumulator's slot 2l (the slot readers use) bit-identical to
// the Go body's. The seed corpus lives in
// testdata/fuzz/FuzzSpanKernels.
func FuzzSpanKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := newSpanFuzzInput(data)
		L := 2 * (1 + int(in.byte()%8))
		nq := 1 + int(in.byte()%5)
		dim := 1 << nq
		blkC := L << (in.byte() % byte(nq))
		blkA := L << (in.byte() % byte(nq))
		flags := in.byte()
		pinA, pinC := flags&1 != 0, flags&2 != 0

		base := &spanFuzzState{span: make([]complex128, dim*L)}
		for i := range base.span {
			base.span[i] = complex(in.float(), in.float())
		}
		base.aA = in.dup(L)
		base.aB = base.aA
		if !pinA {
			base.aB = in.dup(L)
		}
		cA, cB := in.dup(L), in.dup(L)
		mA, mB := in.keepMasks(L), in.keepMasks(L)
		if pinC {
			cB, mB = cA, mA
		}
		cc := in.dup(L)
		r00, r11 := in.float(), in.float()
		u01 := complex(in.float(), in.float())
		u10 := complex(in.float(), in.float())

		kernels := []spanFuzzKernel{
			{"scale", func(s *spanFuzzState) { spanScaleBlocks(s.span, cA, cB, blkC) }},
			{"acc", func(s *spanFuzzState) { spanAccBlocks(s.span, s.aA, s.aB, blkA) }},
			{"scaleAcc", func(s *spanFuzzState) { spanScaleAccBlocks(s.span, cA, cB, s.aA, s.aB, blkC, blkA) }},
			{"apply1RD", func(s *spanFuzzState) { spanApply1RDBlocks(s.span, blkC, r00, r11, u01, u10) }},
			{"collapse", func(s *spanFuzzState) { spanCollapseBlocks(s.span, cc, mA, mB, s.aA, blkC) }},
		}
		if nq >= 2 {
			qa := int(in.byte()) % nq
			qb := int(in.byte()) % (nq - 1)
			if qb >= qa {
				qb++
			}
			hi, lo := 1<<(nq-1-min(qa, qb)), 1<<(nq-1-max(qa, qb))
			kernels = append(kernels, spanFuzzKernel{"negBoth", func(s *spanFuzzState) { spanNegBothBlocks(s.span, hi*L, lo*L) }})
		}

		for _, k := range kernels {
			ref := base.clone()
			withSIMD(simdOff, func() { k.run(ref) })
			for _, mode := range simdModes() {
				if mode == simdOff {
					continue
				}
				got := base.clone()
				withSIMD(mode, func() { k.run(got) })
				ctx := fmt.Sprintf("%s simd=%s L=%d nq=%d blkC=%d blkA=%d pinA=%v pinC=%v",
					k.name, mode, L, nq, blkC, blkA, pinA, pinC)
				for i := range ref.span {
					if !sameFloatBits(real(got.span[i]), real(ref.span[i])) || !sameFloatBits(imag(got.span[i]), imag(ref.span[i])) {
						t.Fatalf("%s: span[%d] = %v, Go body %v", ctx, i, got.span[i], ref.span[i])
					}
				}
				for l := 0; l < L; l++ {
					if !sameFloatBits(got.aA[2*l], ref.aA[2*l]) || !sameFloatBits(got.aB[2*l], ref.aB[2*l]) {
						t.Fatalf("%s: lane %d accumulators (%v, %v), Go body (%v, %v)",
							ctx, l, got.aA[2*l], got.aB[2*l], ref.aA[2*l], ref.aB[2*l])
					}
				}
			}
		}
	})
}
