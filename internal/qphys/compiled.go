package qphys

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Compiled-channel hooks for schedule compilers (internal/replay).
//
// A recorded shot schedule applies the same handful of cached channels
// and unitaries thousands of times. ApplyKraus1 re-derives the same
// structure on every call: it classifies each operator as diagonal /
// anti-diagonal / dense, recomputes the Born-weight coefficients from the
// operator entries, and (on the density backend) rebuilds the
// entry/conjugate tables. ChannelTable hoists all of that out of the shot
// loop into one per-schedule table, and the Carry variants additionally
// let consecutive axis-aligned steps share population passes. A table
// holds only the channel class the machine records — DecoherenceChannel's
// real-diagonal and anti-diagonal operators — so the compiled executors
// carry no dense or complex-diagonal path; ApplyKraus1 stays the general
// kernel and the reference. Every hook is bit-identical to the
// un-compiled path it replaces — pricing uses the same float64
// coefficient values, and all accumulations preserve the per-accumulator
// addition order — so a compiled schedule produces the same PRNG
// consumption and the same state, bit for bit.

// ChannelTable is the per-schedule compiled form of a single-qubit Kraus
// channel: operator classification, Born-weight pricing coefficients, and
// application entries for the trajectory backend, plus the entry/conjugate
// tables of the density kernel. Build one per distinct channel of a
// schedule (channels are cached per (qubit, idle-duration) on the machine,
// so pointer identity of the Kraus slice is a natural dedup key).
type ChannelTable struct {
	ops []Matrix

	// Trajectory pricing tables, one entry per operator. kind classifies
	// the operator; w0/w1 are the Born-weight coefficients of the
	// populations (weight = w0·p0 + w1·p1), exactly the norm² values
	// ApplyKraus1 computes per call. e0/e1 are the two (potentially)
	// nonzero entries: (k00, k11) for diagonal operators, whose entries
	// are real, and (k01, k10) for anti-diagonal ones.
	kind   []uint8
	w0, w1 []float64
	e0, e1 []complex128

	// Density kernel tables: operator entries and their conjugates, the
	// arrays ApplyKraus1 builds on the stack per call.
	kd, kc [][4]complex128

	// First-operator scalars, mirrored out of the slices: the no-jump
	// branch of a decoherence channel absorbs almost all of the Born
	// weight, so the pricing fast path reads these without slice loads.
	fkind    uint8
	fw0, fw1 float64
	fr0, fr1 float64
}

// Operator classes of a ChannelTable entry, mirroring the dynamic
// classification in Trajectory.ApplyKraus1.
const (
	chanDiag uint8 = iota // diagonal, real entries
	chanAnti              // anti-diagonal
)

// NewChannelTable compiles a single-qubit channel (Σ K†K = I) into its
// per-schedule table. It accepts the channel class the machine records:
// 2 to maxKraus1 operators, each diagonal with real entries or
// anti-diagonal — every non-identity DecoherenceChannel (and the
// depolarizing channel). Any other channel panics; ApplyKraus1 applies
// those. The operators are retained by reference; channels come from the
// machine's immutable caches, so no copy is taken.
func NewChannelTable(ops []Matrix) *ChannelTable {
	if len(ops) < 2 || len(ops) > maxKraus1 {
		panic(fmt.Sprintf("qphys: NewChannelTable requires 2..%d operators, got %d", maxKraus1, len(ops)))
	}
	ct := &ChannelTable{ops: ops}
	for i := range ops {
		k := &ops[i]
		if k.N != 2 {
			panic(fmt.Sprintf("qphys: NewChannelTable requires single-qubit operators, got %d×%d", k.N, k.N))
		}
		var kd, kc [4]complex128
		for e := 0; e < 4; e++ {
			kd[e] = k.Data[e]
			kc[e] = cmplx.Conj(k.Data[e])
		}
		ct.kd = append(ct.kd, kd)
		ct.kc = append(ct.kc, kc)
		switch {
		case k.Data[1] == 0 && k.Data[2] == 0 && imag(k.Data[0]) == 0 && imag(k.Data[3]) == 0:
			ct.kind = append(ct.kind, chanDiag)
			ct.w0 = append(ct.w0, norm2(k.Data[0]))
			ct.w1 = append(ct.w1, norm2(k.Data[3]))
			ct.e0 = append(ct.e0, k.Data[0])
			ct.e1 = append(ct.e1, k.Data[3])
		case k.Data[0] == 0 && k.Data[3] == 0:
			ct.kind = append(ct.kind, chanAnti)
			ct.w0 = append(ct.w0, norm2(k.Data[2]))
			ct.w1 = append(ct.w1, norm2(k.Data[1]))
			ct.e0 = append(ct.e0, k.Data[1])
			ct.e1 = append(ct.e1, k.Data[2])
		default:
			panic(fmt.Sprintf("qphys: NewChannelTable operator %d is neither real-diagonal nor anti-diagonal", i))
		}
	}
	ct.fkind = ct.kind[0]
	ct.fw0, ct.fw1 = ct.w0[0], ct.w1[0]
	ct.fr0, ct.fr1 = real(ct.e0[0]), real(ct.e1[0])
	return ct
}

// Ops returns the channel's Kraus operators (the slice the table was
// built from).
func (ct *ChannelTable) Ops() []Matrix { return ct.ops }

// PopCarry carries one qubit's per-bit populations (p0 = Σ|a|² over
// amplitudes with the qubit's bit clear, p1 over the bit set) from a
// fused kernel to the next schedule step, so the next step can skip its
// own population pass. Valid reports whether the values were produced;
// a carry is only usable for the qubit it was accumulated for.
type PopCarry struct {
	P0, P1 float64
	Valid  bool
}

// ApplyChannel applies the compiled channel to qubit q, bit-identical to
// ApplyKraus1(ct.Ops(), q) with the per-call classification and pricing
// hoisted into the table.
func (t *Trajectory) ApplyChannel(ct *ChannelTable, q int) {
	t.ApplyChannelCarry(ct, q, PopCarry{}, -1)
}

// ApplyChannelCarry applies the compiled channel to qubit q. It is
// bit-identical to ApplyKraus1(ct.Ops(), q): same PRNG consumption (one
// variate), same pricing arithmetic, same application arithmetic.
//
// in, when Valid, must hold qubit q's populations exactly as a fresh
// population pass over the current state would compute them (i.e. the
// carry produced by the immediately preceding fused kernel); the pass is
// then skipped. When nextQ ≥ 0, the application pass additionally
// accumulates qubit nextQ's populations — in ascending index order per
// accumulator, matching a standalone pass bit for bit — and returns them
// as a Valid carry: for any nextQ after a diagonal selection, for q only
// after an anti-diagonal one. Every other outcome (an anti-diagonal
// selection asked for another qubit, a zero-weight draw) returns an
// invalid carry, and the next step pays its own pass.
func (t *Trajectory) ApplyChannelCarry(ct *ChannelTable, q int, in PopCarry, nextQ int) PopCarry {
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: ApplyChannelCarry qubit %d out of range 0..%d", q, t.nq-1))
	}
	mask := 1 << (t.nq - 1 - q)
	psi := t.Psi
	r := t.src.Float64()

	var p0, p1 float64
	if in.Valid {
		p0, p1 = in.P0, in.P1
	} else {
		for base := 0; base < len(psi); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				a0, a1 := psi[i], psi[i+mask]
				p0 += real(a0)*real(a0) + imag(a0)*imag(a0)
				p1 += real(a1)*real(a1) + imag(a1)*imag(a1)
			}
		}
	}
	return t.applyChannelSampled(ct, q, mask, p0, p1, r, nextQ)
}

// chanChoseNone is priceChannel's selection when no operator had
// positive weight: the channel is a no-op for this draw.
const chanChoseNone = -1

// priceChannel reproduces the operator selection of the un-compiled
// trajectory channel path bit for bit: given the two populations and
// the draw, it returns the chosen operator index and its Born weight
// (the normalization p the application divides by), or chanChoseNone.
// Pure — it reads only the table — so the batched executor prices every
// lane with exactly the scalar decision.
func priceChannel(ct *ChannelTable, p0, p1, r float64) (chosen int, lastP float64) {
	// Fast path for the overwhelmingly common draw: the first operator
	// (the no-jump branch of a decoherence channel) absorbs almost all of
	// the Born weight. cum accumulates from exactly 0.0, so r < w0·p0 +
	// w1·p1 reproduces the general loop's first-iteration decision bit
	// for bit.
	if p := ct.fw0*p0 + ct.fw1*p1; r < p {
		return 0, p
	}
	cum := 0.0
	lastPositive := -1
	for ki := range ct.ops {
		// Identical arithmetic to the un-compiled pricing for both
		// operator classes: IEEE addition is commutative, so
		// w0·p0 + w1·p1 matches the anti-diagonal path's
		// norm²(k01)·p1 + norm²(k10)·p0 bit for bit.
		p := ct.w0[ki]*p0 + ct.w1[ki]*p1
		if p > 0 {
			lastPositive, lastP = ki, p
		}
		cum += p
		if r < cum {
			return ki, p
		}
	}
	// Numerical leftover pushed the cumulative sum just below r; fall
	// back to the last operator with nonzero weight.
	if lastPositive < 0 {
		return chanChoseNone, 0
	}
	return lastPositive, lastP
}

// applyChannelSampled is the pricing + application tail of
// ApplyChannelCarry, entered with the populations and the variate already
// in hand — the compiled-schedule executor (RunSchedule) jumps here
// directly when its first-operator fast path does not apply, and the
// one-qubit lane kernel runs it per lane for its jumps. A diagonal
// selection is applied by scaleDiagReal, the kernel the fast path calls
// too. Deterministic in (state, ct, q, p0, p1, r), so re-entering with
// the same inputs reproduces the same selection bit for bit.
func (t *Trajectory) applyChannelSampled(ct *ChannelTable, q, mask int, p0, p1, r float64, nextQ int) PopCarry {
	chosen, lastP := priceChannel(ct, p0, p1, r)
	if chosen == chanChoseNone {
		return PopCarry{}
	}
	rinv := 1 / math.Sqrt(lastP)
	if ct.kind[chosen] == chanDiag {
		return t.scaleDiagReal(q, mask, real(ct.e0[chosen])*rinv, real(ct.e1[chosen])*rinv, nextQ)
	}
	inv := complex(rinv, 0)
	c01, c10 := ct.e0[chosen]*inv, ct.e1[chosen]*inv
	psi := t.Psi
	if nextQ == q {
		// An anti-diagonal operator swaps the halves, so the pair loop's
		// new lo values feed p0 ascending and new hi values feed p1
		// ascending — the same-qubit carry stays exact.
		var np0, np1 float64
		for base := 0; base < len(psi); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				v0, v1 := c01*psi[i+mask], c10*psi[i]
				psi[i], psi[i+mask] = v0, v1
				np0 += real(v0)*real(v0) + imag(v0)*imag(v0)
				np1 += real(v1)*real(v1) + imag(v1)*imag(v1)
			}
		}
		return PopCarry{P0: np0, P1: np1, Valid: true}
	}
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			psi[i], psi[i+mask] = c01*psi[i+mask], c10*psi[i]
		}
	}
	return PopCarry{}
}

// scaleDiagReal applies a sampled real diagonal operator, already
// normalized to the coefficients (r0, r1), to qubit q (mask = its bit)
// and returns the carry nextQ asks for: q's own populations, another
// qubit's, or none (nextQ < 0). Every apply+carry pass visits each index
// once in globally ascending order, so each accumulator's addition order
// matches a standalone population pass bit for bit. It is the one
// real-diagonal channel apply of the scalar executor: applyChannelSampled
// and RunSchedule's first-operator fast path both end here.
func (t *Trajectory) scaleDiagReal(q, mask int, r0, r1 float64, nextQ int) PopCarry {
	psi := t.Psi
	switch {
	case nextQ == q:
		// Fused apply + same-qubit population pass: lo amplitudes feed p0
		// and hi amplitudes feed p1, each in ascending index order —
		// exactly the order of a standalone pass.
		var np0, np1 float64
		for base := 0; base < len(psi); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				a := psi[i]
				re, im := real(a)*r0, imag(a)*r0
				psi[i] = complex(re, im)
				np0 += re*re + im*im
				b := psi[i+mask]
				re, im = real(b)*r1, imag(b)*r1
				psi[i+mask] = complex(re, im)
				np1 += re*re + im*im
			}
		}
		return PopCarry{P0: np0, P1: np1, Valid: true}
	case nextQ >= 0 && nextQ < t.nq:
		// Fused apply + other-qubit population pass. The loops nest by
		// whichever of the two masks is larger, so the coefficient and
		// the accumulator each change only at their own block boundaries
		// and the inner loops stay branch-free with register accumulators.
		nmask := 1 << (t.nq - 1 - nextQ)
		var np0, np1 float64
		if nmask > mask {
			// Accumulator constant per outer block, coefficient
			// alternating every mask elements inside.
			for nb := 0; nb < len(psi); nb += nmask {
				s := np0
				if nb&nmask != 0 {
					s = np1
				}
				for mb := nb; mb < nb+nmask; mb += mask << 1 {
					for i := mb; i < mb+mask; i++ {
						a := psi[i]
						re, im := real(a)*r0, imag(a)*r0
						psi[i] = complex(re, im)
						s += re*re + im*im
					}
					for i := mb + mask; i < mb+mask+mask; i++ {
						a := psi[i]
						re, im := real(a)*r1, imag(a)*r1
						psi[i] = complex(re, im)
						s += re*re + im*im
					}
				}
				if nb&nmask != 0 {
					np1 = s
				} else {
					np0 = s
				}
			}
		} else if nmask == 1 {
			// Bottom-qubit carry target: accumulators alternate every
			// element, so walk each coefficient block pairwise with no
			// inner slicing.
			for mb := 0; mb < len(psi); mb += mask {
				r := r0
				if mb&mask != 0 {
					r = r1
				}
				for i := mb; i+1 < mb+mask; i += 2 {
					a := psi[i]
					re, im := real(a)*r, imag(a)*r
					psi[i] = complex(re, im)
					np0 += re*re + im*im
					b := psi[i+1]
					re, im = real(b)*r, imag(b)*r
					psi[i+1] = complex(re, im)
					np1 += re*re + im*im
				}
			}
		} else {
			// Coefficient constant per outer block, accumulator
			// alternating every nmask elements inside.
			for mb := 0; mb < len(psi); mb += mask {
				r := r0
				if mb&mask != 0 {
					r = r1
				}
				for nb := mb; nb < mb+mask; nb += nmask << 1 {
					for i := nb; i < nb+nmask; i++ {
						a := psi[i]
						re, im := real(a)*r, imag(a)*r
						psi[i] = complex(re, im)
						np0 += re*re + im*im
					}
					for i := nb + nmask; i < nb+nmask+nmask; i++ {
						a := psi[i]
						re, im := real(a)*r, imag(a)*r
						psi[i] = complex(re, im)
						np1 += re*re + im*im
					}
				}
			}
		}
		return PopCarry{P0: np0, P1: np1, Valid: true}
	}
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a := psi[i]
			psi[i] = complex(real(a)*r0, imag(a)*r0)
			b := psi[i+mask]
			psi[i+mask] = complex(real(b)*r1, imag(b)*r1)
		}
	}
	return PopCarry{}
}

// Apply1Carry is Apply1 fused with a same-qubit population pass: it
// applies the single-qubit unitary to qubit q and accumulates q's
// populations from the new amplitudes — lo values feed p0 and hi values
// feed p1, each in ascending index order — bit-identical to Apply1
// followed by a standalone pass. (An other-qubit carry would have to
// revisit the hi half after the pair loop, which is just the pop pass it
// is meant to save; the schedule compiler links unitary producers only
// to same-qubit consumers.)
func (t *Trajectory) Apply1Carry(u Matrix, q int) PopCarry {
	if u.N != 2 {
		panic("qphys: Apply1Carry requires a single-qubit gate")
	}
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: Apply1Carry qubit %d out of range 0..%d", q, t.nq-1))
	}
	mask := 1 << (t.nq - 1 - q)
	u00, u01, u10, u11 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	psi := t.Psi
	var np0, np1 float64
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a0, a1 := psi[i], psi[i+mask]
			v0 := u00*a0 + u01*a1
			v1 := u10*a0 + u11*a1
			psi[i] = v0
			psi[i+mask] = v1
			np0 += real(v0)*real(v0) + imag(v0)*imag(v0)
			np1 += real(v1)*real(v1) + imag(v1)*imag(v1)
		}
	}
	return PopCarry{P0: np0, P1: np1, Valid: true}
}

// MeasureCarry is Measure with qubit q's raw excited-state population
// already known: p1 must equal the |1⟩ population a fresh pass would
// compute (e.g. the P1 of a Valid PopCarry for q). It clamps, samples,
// and collapses exactly as Measure does, with the caller's variate r (one
// Float64 draw, taken where Measure takes its own). With
// wantCarry it additionally carries qubit q's post-collapse populations
// to the next schedule step: the projection
// pass accumulates the renormalized survivors' |a|² in ascending index
// order (the zeroed branch contributes an exact 0), so the carry matches
// a standalone pass bit for bit. The degenerate zero-probability reset
// path produces no carry.
func (t *Trajectory) MeasureCarry(q int, p1, r float64, wantCarry bool) (int, PopCarry) {
	p1 = clampProb(p1)
	outcome := 0
	p := 1 - p1
	if r < p1 {
		outcome = 1
		p = p1
	}
	if !wantCarry {
		t.projectWithProb(q, outcome, p)
		return outcome, PopCarry{}
	}
	if p < 1e-15 {
		t.projectWithProb(q, outcome, p)
		return outcome, PopCarry{}
	}
	mask := 1 << (t.nq - 1 - q)
	psi := t.Psi
	rinv := 1 / math.Sqrt(p)
	var np float64
	for base := 0; base < len(psi); base += mask << 1 {
		if outcome == 0 {
			for i := base; i < base+mask; i++ {
				a := psi[i]
				re, im := real(a)*rinv, imag(a)*rinv
				psi[i] = complex(re, im)
				np += re*re + im*im
				psi[i+mask] = 0
			}
		} else {
			for i := base; i < base+mask; i++ {
				psi[i] = 0
				a := psi[i+mask]
				re, im := real(a)*rinv, imag(a)*rinv
				psi[i+mask] = complex(re, im)
				np += re*re + im*im
			}
		}
	}
	if outcome == 0 {
		return outcome, PopCarry{P0: np, Valid: true}
	}
	return outcome, PopCarry{P1: np, Valid: true}
}

// ApplyChannel applies the compiled channel to qubit q, bit-identical to
// ApplyKraus1(ct.Ops(), q) with the per-call entry/conjugate table
// construction hoisted into the table.
func (d *Density) ApplyChannel(ct *ChannelTable, q int) {
	if q < 0 || q >= d.nq {
		panic(fmt.Sprintf("qphys: ApplyChannel qubit %d out of range 0..%d", q, d.nq-1))
	}
	d.applyKraus1Tables(ct.kd, ct.kc, q)
}

// IsCZ reports whether a two-qubit unitary is exactly diag(1, 1, 1, −1) —
// the flux-pulse CZ, the only two-qubit gate the machine's physical layer
// emits. Compiled schedules apply it with NegateBoth.
func IsCZ(u Matrix) bool {
	if u.N != 4 {
		return false
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
				if i == 3 {
					want = -1
				}
			}
			if u.Data[i*4+j] != want {
				return false
			}
		}
	}
	return true
}

// NegateBoth negates every amplitude whose qa and qb bits are both set —
// the CZ gate, without Apply2's classification and group walk: the
// lockstep executor's span kernel at one lane. Identical to
// Apply2(CZ, qa, qb) except for the sign of zeros (negation vs
// multiplication by −1+0i), which nothing downstream can observe.
func (t *Trajectory) NegateBoth(qa, qb int) {
	if qa == qb || qa < 0 || qa >= t.nq || qb < 0 || qb >= t.nq {
		panic(fmt.Sprintf("qphys: NegateBoth qubits (%d,%d) invalid for %d-qubit register", qa, qb, t.nq))
	}
	hi := 1 << (t.nq - 1 - qa)
	lo := 1 << (t.nq - 1 - qb)
	if lo > hi {
		hi, lo = lo, hi
	}
	spanNegBothBlocks(t.Psi, hi, lo)
}

// RealDiag2 reports whether a single-qubit unitary's diagonal entries
// are both real — true for every pulse rotation the machine plays
// (REquator matrices have cos(θ/2) on the diagonal), which lets compiled
// schedules use the cheaper Apply1RD kernel.
func RealDiag2(u Matrix) bool {
	return u.N == 2 && imag(u.Data[0]) == 0 && imag(u.Data[3]) == 0
}

// Apply1RD is Apply1 specialized for unitaries with real diagonal
// entries (RealDiag2): the diagonal terms scale each amplitude's parts
// with two real multiplies instead of a complex multiply. It is the
// lockstep executor's span kernel at one lane. Identical to Apply1
// except for the sign of zeros, which nothing downstream can observe.
func (t *Trajectory) Apply1RD(u Matrix, q int) {
	if u.N != 2 {
		panic("qphys: Apply1RD requires a single-qubit gate")
	}
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: Apply1RD qubit %d out of range 0..%d", q, t.nq-1))
	}
	spanApply1RDBlocks(t.Psi, 1<<(t.nq-1-q), real(u.Data[0]), real(u.Data[3]), u.Data[1], u.Data[2])
}

// Apply1RDCarry is Apply1RD fused with a same-qubit population pass (see
// Apply1Carry for the ordering argument).
func (t *Trajectory) Apply1RDCarry(u Matrix, q int) PopCarry {
	if u.N != 2 {
		panic("qphys: Apply1RDCarry requires a single-qubit gate")
	}
	if q < 0 || q >= t.nq {
		panic(fmt.Sprintf("qphys: Apply1RDCarry qubit %d out of range 0..%d", q, t.nq-1))
	}
	mask := 1 << (t.nq - 1 - q)
	r00, r11 := real(u.Data[0]), real(u.Data[3])
	u01, u10 := u.Data[1], u.Data[2]
	psi := t.Psi
	var np0, np1 float64
	for base := 0; base < len(psi); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			a0, a1 := psi[i], psi[i+mask]
			x := u01 * a1
			y := u10 * a0
			v0re, v0im := real(a0)*r00+real(x), imag(a0)*r00+imag(x)
			v1re, v1im := real(y)+real(a1)*r11, imag(y)+imag(a1)*r11
			psi[i] = complex(v0re, v0im)
			psi[i+mask] = complex(v1re, v1im)
			np0 += v0re*v0re + v0im*v0im
			np1 += v1re*v1re + v1im*v1im
		}
	}
	return PopCarry{P0: np0, P1: np1, Valid: true}
}
