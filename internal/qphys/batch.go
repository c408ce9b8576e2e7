package qphys

import (
	"fmt"
	"math"

	"quma/internal/prng"
)

// batch.go — lockstep shot-batched execution of a compiled schedule.
//
// A compiled schedule is identical for every steady-state shot by
// construction (that is what replay safety means), so the only thing
// that differs between two shot shards of one job is the per-shard PRNG
// stream and the state it drives. TrajBatch exploits that: it runs L
// independent trajectory registers ("lanes" — one lane per shot shard)
// in lockstep over ONE decoded op stream, with the amplitudes stored
// lane-minor (amp[i*L+lane]) so the hot per-amplitude loops become
// contiguous spans — rows i..i+mask-1 occupy one mask*L run of memory —
// that the span primitives in batch_span.go walk with SIMD kernels
// where the host supports them, and the per-op dispatch/classification
// cost is paid once per batch instead of once per lane.
//
// The contract is per-lane bit-identity: lane k of a batch produces
// exactly the bytes that running the same schedule on lane k's scalar
// Trajectory would produce. Every kernel here is a port of its scalar
// counterpart (trajectory.go, compiled.go, sched.go) preserving each
// lane's floating-point operations in the same order with the same
// values (IEEE addition is commutative, so a+b reorderings inside one
// rounding step are bitwise free — but addition ORDER into an
// accumulator is pinned to the scalar pass), each lane's PRNG draws in
// the same order, and every control-flow decision (operator selection,
// measurement outcome, degenerate-projection reset) taken per lane from
// the same comparisons. Each lane's channel operator is selected by the
// shared pricing helper (priceChannel — the scalar decision verbatim):
// an anti-diagonal jump is applied at once, by a strided walk of the
// lane's own column (spanAntiLane), and then one vectorized flat pass
// applies every diagonal selection with per-lane coefficients, scales
// the other lanes by an exact 1.0, and — when the schedule wants a
// carry — hands every lane its carry. A channel table holds no other
// operator class (NewChannelTable), so no lane leaves the batch. The
// one two-qubit step is the CZ (SchedCZ), the machine's only two-qubit
// gate. Populations come from each lane's carry; when any lane lacks a
// valid one — the schedule broke the chain, or a degenerate measurement
// reset broke one lane's — one whole-block pass recomputes them for
// every lane.
//
// Each rare event (an anti jump, a degenerate measurement) has exactly
// one path, and no step here looks at the host's SIMD support: the span
// wrappers in batch_span.go pick a kernel body per call.
type TrajBatch struct {
	nq int
	L  int
	// amp is the lane-minor SoA amplitude block: amplitude i of lane l
	// lives at amp[i*L+l].
	amp []complex128
	// lanes are the member registers; their Psi slices are the
	// gather/scatter endpoints (Gather on construction, Scatter to hand
	// the state back).
	lanes []*Trajectory
	srcs  []*prng.Source

	// Population-carry state, threaded across ops and shots exactly as
	// the scalar executor threads its (PopCarry, carryQ) pair. The
	// carried qubit is shared — it is determined by the schedule alone,
	// never by lane data — while validity and values are per lane.
	carry  []PopCarry
	carryQ int

	// scratch is a one-qubit register on which the one-qubit lane
	// kernel (batch1.go) runs the scalar kernels for one lane's jumps
	// and measurements; nil on larger batches. It has no generator —
	// every variate is drawn from the lane's own source.
	scratch *Trajectory

	// Per-op scratch, allocated once so the steady-state shot loop
	// performs no heap allocations. The 2L-sized slices use the
	// duplicated per-lane layout of the span primitives: lane l's value
	// sits at [2l] (and, when a SIMD kernel produced it, equally at
	// [2l+1]); readers always use slot 2l.
	pp0, pp1 []float64 // 2L: population-pass results
	r0, r1   []float64 // 2L: flat-pass scale coefficients
	np0, np1 []float64 // 2L: fused-pass accumulators
	mk0, mk1 []uint64  // 2L: collapse keep-masks (lo half, hi half)
	outc     []int
}

// NewTrajBatch binds L scalar trajectory registers into one lockstep
// batch, gathering their amplitudes into the SoA block. The lanes must
// share a register size; each keeps its own PRNG and its own carry. The
// lanes' Psi slices are stale while the batch runs — call Scatter to
// write the batch state back before using them.
func NewTrajBatch(lanes []*Trajectory) *TrajBatch {
	if len(lanes) == 0 {
		panic("qphys: NewTrajBatch requires at least one lane")
	}
	nq := lanes[0].nq
	for _, t := range lanes {
		if t.nq != nq {
			panic(fmt.Sprintf("qphys: NewTrajBatch lanes disagree on register size (%d vs %d)", t.nq, nq))
		}
	}
	L := len(lanes)
	dim := 1 << nq
	b := &TrajBatch{
		nq:     nq,
		L:      L,
		amp:    make([]complex128, dim*L),
		lanes:  append([]*Trajectory(nil), lanes...),
		srcs:   make([]*prng.Source, L),
		carry:  make([]PopCarry, L),
		carryQ: -1,
		pp0:    make([]float64, 2*L),
		pp1:    make([]float64, 2*L),
		r0:     make([]float64, 2*L),
		r1:     make([]float64, 2*L),
		np0:    make([]float64, 2*L),
		np1:    make([]float64, 2*L),
		mk0:    make([]uint64, 2*L),
		mk1:    make([]uint64, 2*L),
		outc:   make([]int, L),
	}
	if nq == 1 {
		b.scratch = &Trajectory{nq: 1, Psi: make([]complex128, 2)}
	}
	for l, t := range lanes {
		b.srcs[l] = t.src
		for i, a := range t.Psi {
			b.amp[i*L+l] = a
		}
	}
	return b
}

// Lanes returns the number of member registers.
func (b *TrajBatch) Lanes() int { return b.L }

// Scatter writes the batch state back into every lane's Psi slice.
func (b *TrajBatch) Scatter() {
	for l, t := range b.lanes {
		for i := range t.Psi {
			t.Psi[i] = b.amp[i*b.L+l]
		}
	}
}

// RunScheduleBatch executes one shot of a compiled schedule on every
// lane, in lockstep. It is the batched analogue of
// Trajectory.RunSchedule: the same op dispatch, the same carry
// threading (the carries persist on the batch across calls, so shot
// k's trailing carry prices shot k+1's first consumer — the schedule
// is circular), and per lane the same arithmetic in the same order.
// measure is invoked for every SchedMeasure step, per lane in lane
// order, and must complete that lane's measurement chain (it may
// consume that lane's PRNG). A one-qubit batch runs the lane kernel of
// batch1.go instead of the span passes.
func (b *TrajBatch) RunScheduleBatch(ops []SchedOp, measure func(lane, q, outcome int)) {
	if b.nq == 1 {
		b.runSchedule1(ops, measure)
		return
	}
	for ii := range ops {
		o := &ops[ii]
		q := int(o.Q)
		switch o.Kind {
		case SchedChannel:
			b.channelBatch(o.Ch, q, int(o.CarryFor))
		case SchedApply1RD:
			if int(o.CarryFor) == q {
				b.apply1RDCarryBatch(o.U, q)
				b.carryQ = q
			} else {
				b.apply1RDBatch(o.U, q)
				for l := range b.carry {
					b.carry[l].Valid = false
				}
			}
		case SchedApply1:
			if int(o.CarryFor) == q {
				b.apply1CarryBatch(o.U, q)
				b.carryQ = q
			} else {
				b.apply1Batch(o.U, q)
				for l := range b.carry {
					b.carry[l].Valid = false
				}
			}
		case SchedCZ:
			b.negateBothBatch(q, int(o.Qb))
		case SchedMeasure:
			b.measureBatch(q, int(o.CarryFor) == q, measure)
		default:
			rejectStep("RunScheduleBatch", o.Kind)
		}
	}
}

// popPass accumulates qubit q's per-bit populations for every lane into
// pp0/pp1 — per lane, the exact addition order of the scalar population
// pass (lo amplitudes into p0 ascending, hi into p1 ascending; the two
// accumulators are independent, so splitting the scalar interleaved row
// loop into one lo pass and one hi pass is bitwise free).
func (b *TrajBatch) popPass(q, mask int) {
	pp0, pp1 := b.pp0, b.pp1
	for i := range pp0 {
		pp0[i], pp1[i] = 0, 0
	}
	spanAccBlocks(b.amp, pp0, pp1, mask*b.L)
}

// carryMissing reports whether some lane has no valid population carry
// for qubit q, so the step must run a population pass.
func (b *TrajBatch) carryMissing(q int) bool {
	if b.carryQ != q {
		return true
	}
	for l := range b.carry {
		if !b.carry[l].Valid {
			return true
		}
	}
	return false
}

// probExcitedBatch fills pp1 with each lane's clamped |1⟩ population of
// qubit q — per lane, ProbExcited's exact result: the full population
// pass accumulates the hi amplitudes into pp1 in the same ascending
// order as ProbExcited's hi-only walk (pp0 rides along unused), and the
// clamp matches.
func (b *TrajBatch) probExcitedBatch(q, mask int) {
	b.popPass(q, mask)
	pp1 := b.pp1
	for l := 0; l < b.L; l++ {
		pp1[2*l] = clampProb(pp1[2*l])
	}
}

// channelBatch is the batched SchedChannel step: per lane the same
// variate draw, population sourcing, operator selection (via the shared
// pricing helper) and 1/√p normalization as the scalar executor, all in
// one pass over the lanes that writes each lane's coefficients. A lane
// that drew an anti-diagonal jump runs the scalar tail's anti kernel
// strided over its own column (spanAntiLane) right there, before any
// flat work. Then one vectorized flat pass applies every diagonal
// selection — the no-jump branch and dephasing jumps, i.e. almost every
// draw — with per-lane coefficients, scaling anti and none lanes by an
// exact 1.0 (a bitwise no-op). When the schedule wants a carry the pass
// is the fused apply+carry pass and runs whatever the lanes drew, so it
// hands every lane its carry: for an anti or none lane the populations
// of its final state, bit-equal to the fresh pass the scalar executor's
// next consumer runs.
func (b *TrajBatch) channelBatch(ct *ChannelTable, q, nextQ int) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L

	// Populations: one whole-block pass whenever any lane lacks a valid
	// carry for q — the schedule broke the chain for every lane, or a
	// degenerate measurement reset broke one lane's. Valid lanes read
	// their carry, not the pass output, so recomputing their slots is
	// harmless.
	if b.carryMissing(q) {
		b.popPass(q, mask)
	}

	// One pass per lane: draw the variate, source the populations
	// (carry or pass — the same precedence as the scalar executor),
	// select the operator and apply an anti jump or write the flat
	// pass's coefficients — 1/√p and the products that use it are the
	// scalar executor's expressions. A lane's walk touches only its own
	// column, so it cannot disturb a later lane's populations.
	r0, r1 := b.r0, b.r1
	srcs, carry := b.srcs, b.carry
	pp0, pp1 := b.pp0, b.pp1
	carryHit := b.carryQ == q
	fast := ct.fkind == chanDiag
	scale := false
	for l := 0; l < L; l++ {
		rv := srcs[l].Float64()
		var pl0, pl1 float64
		if carryHit && carry[l].Valid {
			pl0, pl1 = carry[l].P0, carry[l].P1
		} else {
			pl0, pl1 = pp0[2*l], pp1[2*l]
		}
		// Hot path, as in RunSchedule: the first operator absorbs the
		// draw and is diagonal. The comparison is priceChannel's first
		// iteration, so the decision is bit-identical.
		if fp := ct.fw0*pl0 + ct.fw1*pl1; fast && rv < fp {
			rinv := 1 / math.Sqrt(fp)
			c0, c1 := ct.fr0*rinv, ct.fr1*rinv
			r0[2*l], r0[2*l+1] = c0, c0
			r1[2*l], r1[2*l+1] = c1, c1
			scale = true
			continue
		}
		chosen, lastP := priceChannel(ct, pl0, pl1, rv)
		// Coefficient 1.0 makes the flat pass a bitwise no-op for a lane
		// outside it: the scalar path applies nothing on a none selection,
		// and an anti lane has just run its own walk.
		c0, c1 := 1.0, 1.0
		switch {
		case chosen == chanChoseNone:
		case ct.kind[chosen] == chanDiag:
			scale = true
			rinv := 1 / math.Sqrt(lastP)
			c0, c1 = real(ct.e0[chosen])*rinv, real(ct.e1[chosen])*rinv
		default:
			inv := complex(1/math.Sqrt(lastP), 0)
			spanAntiLane(amp, l, L, mL, ct.e0[chosen]*inv, ct.e1[chosen]*inv)
		}
		r0[2*l], r0[2*l+1] = c0, c0
		r1[2*l], r1[2*l+1] = c1, c1
	}
	b.carryQ = nextQ

	if nextQ < 0 {
		// No carry: the stale carries sit behind carryQ = -1, which no
		// reader matches, until a step rewrites every lane's.
		if scale {
			spanScaleBlocks(amp, r0, r1, mL)
		}
		return
	}
	// Fused apply + population pass of nextQ. For nextQ = q coefficient
	// and accumulator pairs both swap at q's half-block period: per lane,
	// lo amplitudes feed p0 and hi feed p1, each ascending — the two
	// accumulators are independent, so the interleaved scalar order and
	// the block order are bitwise the same sums. For another qubit the
	// accumulator pair swaps at nextQ's period; one whole-block walk
	// covers all three mask-nesting sub-cases of the scalar kernel,
	// visiting every index in globally ascending order so each
	// accumulator's addition order matches a standalone pass.
	np0, np1 := b.np0, b.np1
	for i := range np0 {
		np0[i], np1[i] = 0, 0
	}
	spanScaleAccBlocks(amp, r0, r1, np0, np1, mL, (1<<(b.nq-1-nextQ))*L)
	for l := 0; l < L; l++ {
		carry[l] = PopCarry{P0: np0[2*l], P1: np1[2*l], Valid: true}
	}
}

// apply1Batch is Apply1 over every lane: the matrix is uniform across
// lanes, so the kernel is exactly the scalar pair loop over
// L-times-longer contiguous halves — no lane bookkeeping at all.
func (b *TrajBatch) apply1Batch(u Matrix, q int) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L
	dim := 1 << b.nq
	u00, u01, u10, u11 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	for base := 0; base < dim; base += mask << 1 {
		s := base * L
		lo := amp[s : s+mL : s+mL]
		hi := amp[s+mL : s+mL+mL : s+mL+mL]
		for j, a0 := range lo {
			a1 := hi[j]
			lo[j] = u00*a0 + u01*a1
			hi[j] = u10*a0 + u11*a1
		}
	}
}

// apply1CarryBatch is Apply1Carry per lane: the same span update as
// apply1Batch, plus each lane's new populations accumulated in
// ascending index order via a wrapped lane counter.
func (b *TrajBatch) apply1CarryBatch(u Matrix, q int) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L
	dim := 1 << b.nq
	u00, u01, u10, u11 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	np0, np1 := b.np0, b.np1
	for i := range np0 {
		np0[i], np1[i] = 0, 0
	}
	for base := 0; base < dim; base += mask << 1 {
		s := base * L
		lo := amp[s : s+mL : s+mL]
		hi := amp[s+mL : s+mL+mL : s+mL+mL]
		k := 0
		for j, a0 := range lo {
			a1 := hi[j]
			v0 := u00*a0 + u01*a1
			v1 := u10*a0 + u11*a1
			lo[j] = v0
			hi[j] = v1
			np0[k] += real(v0)*real(v0) + imag(v0)*imag(v0)
			np1[k] += real(v1)*real(v1) + imag(v1)*imag(v1)
			if k += 2; k == 2*L {
				k = 0
			}
		}
	}
	for l := 0; l < L; l++ {
		b.carry[l] = PopCarry{P0: np0[2*l], P1: np1[2*l], Valid: true}
	}
}

// apply1RDBatch is Apply1RD over flat spans (uniform real-diagonal
// matrix, no lane bookkeeping).
func (b *TrajBatch) apply1RDBatch(u Matrix, q int) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L
	r00, r11 := real(u.Data[0]), real(u.Data[3])
	u01, u10 := u.Data[1], u.Data[2]
	spanApply1RDBlocks(amp, mL, r00, r11, u01, u10)
}

// apply1RDCarryBatch is Apply1RDCarry per lane: the span update followed
// by per-lane accumulation of the stored values. The scalar kernel
// interleaves the two accumulators per row; they are independent, so
// accumulating lo then hi per block is bitwise identical (the stored
// amplitude is the exact register value the scalar pass squared).
func (b *TrajBatch) apply1RDCarryBatch(u Matrix, q int) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L
	r00, r11 := real(u.Data[0]), real(u.Data[3])
	u01, u10 := u.Data[1], u.Data[2]
	np0, np1 := b.np0, b.np1
	for i := range np0 {
		np0[i], np1[i] = 0, 0
	}
	spanApply1RDBlocks(amp, mL, r00, r11, u01, u10)
	spanAccBlocks(amp, np0, np1, mL)
	for l := 0; l < L; l++ {
		b.carry[l] = PopCarry{P0: np0[2*l], P1: np1[2*l], Valid: true}
	}
}

// negateBothBatch is NegateBoth over every lane (negation is exact, so
// lane order is immaterial).
func (b *TrajBatch) negateBothBatch(qa, qb int) {
	L := b.L
	hi := 1 << (b.nq - 1 - qa)
	lo := 1 << (b.nq - 1 - qb)
	if lo > hi {
		hi, lo = lo, hi
	}
	spanNegBothBlocks(b.amp, hi*L, lo*L)
}

// measureBatch is the batched SchedMeasure step: per lane the same
// population sourcing, clamp, projection draw, collapse arithmetic, and
// degenerate zero-probability reset as the scalar executor. One pass
// over the lanes, in lane order, draws each projection and writes that
// lane's collapse scale (1/√p) and keep-masks; then one masked pass
// collapses every lane (MeasureCarry's arithmetic on the lane-minor
// layout); then the measure callback fires per lane in lane order (each
// callback may consume its own lane's PRNG — the per-lane draw order
// stays projection → callback, as in scalar execution).
func (b *TrajBatch) measureBatch(q int, wantCarry bool, measure func(lane, q, outcome int)) {
	L := b.L
	amp := b.amp
	mask := 1 << (b.nq - 1 - q)
	mL := mask * L

	// Population sourcing mirrors channelBatch: one whole-block pass
	// whenever any lane lacks a valid carry for q.
	if b.carryMissing(q) {
		b.probExcitedBatch(q, mask)
	}

	// One pass per lane in lane order: source p1, clamp, draw the
	// projection variate, classify, and write the lane's collapse scale
	// and keep-masks. All lane draws happen before any amplitude work;
	// per lane the draw still precedes its own collapse, as in the scalar
	// executor.
	carry, srcs, outc := b.carry, b.srcs, b.outc
	cc := b.r0
	mk0, mk1 := b.mk0, b.mk1
	carryHit := b.carryQ == q
	for l := 0; l < L; l++ {
		var p1 float64
		if carryHit && carry[l].Valid {
			p1 = carry[l].P1
		} else {
			p1 = b.pp1[2*l]
		}
		p1 = clampProb(p1)
		outcome := 0
		p := 1 - p1
		if srcs[l].Float64() < p1 {
			outcome = 1
			p = p1
		}
		outc[l] = outcome
		// Degenerate projection (p < 1e-15): the scalar path resets to
		// the basis state consistent with the outcome. A zero scale and
		// all-zero keep-masks in both halves make the batched pass write
		// the reset's exact +0 everywhere; the basis amplitude is
		// restored after the pass. Bitwise-equal to the scalar Reset +
		// Apply1(PauliX), which produces exact (+0,+0) everywhere and
		// 1+0i at the flipped index. The zero scale is also the lane's
		// mark: an ordinary projection's 1/√p is never zero.
		var c float64
		var keep0, keep1 uint64
		if p >= 1e-15 {
			c = 1 / math.Sqrt(p)
			if outcome == 0 {
				keep0 = ^uint64(0)
			} else {
				keep1 = ^uint64(0)
			}
		}
		cc[2*l], cc[2*l+1] = c, c
		mk0[2*l], mk0[2*l+1] = keep0, keep0
		mk1[2*l], mk1[2*l+1] = keep1, keep1
	}

	// One contiguous masked pass collapses every lane: the kept half is
	// scaled by 1/√p (the scalar multiply, bit for bit), the discarded
	// half becomes the scalar's literal +0, and each lane's new kept
	// population accumulates in ascending index order.
	np0 := b.np0
	for i := range np0 {
		np0[i] = 0
	}
	spanCollapseBlocks(amp, cc, mk0, mk1, np0, mL)

	for l := 0; l < L; l++ {
		if cc[2*l] == 0 {
			idx := 0
			if outc[l] == 1 {
				idx = mask
			}
			amp[idx*L+l] = 1
			carry[l] = PopCarry{}
			continue
		}
		switch {
		case !wantCarry:
			carry[l] = PopCarry{}
		case outc[l] == 0:
			carry[l] = PopCarry{P0: np0[2*l], Valid: true}
		default:
			carry[l] = PopCarry{P1: np0[2*l], Valid: true}
		}
	}
	b.carryQ = q
	for l := 0; l < L; l++ {
		measure(l, q, outc[l])
	}
}
