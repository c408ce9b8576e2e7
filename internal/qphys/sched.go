package qphys

import "math"

// sched.go — single-pass execution of a compiled shot schedule on the
// trajectory backend. A schedule compiler (internal/replay) lowers a
// recorded shot into []SchedOp once; RunSchedule then executes the whole
// shot with the channel step's population pass and first-operator check
// inline, the state slice and PRNG hoisted out of the step loop, and
// population carries threaded between steps. Every amplitude update is a
// call to the one kernel of its operation in compiled.go, and every
// arithmetic decision is bit-identical to executing the same operations
// through Apply1/ApplyKraus1/Measure one call at a time (modulo the sign
// of zeros, which nothing can observe; see compiled.go).

// SchedOp kinds. The compiler picks the most specialized kind that
// applies; RunSchedule trusts the classification.
const (
	// SchedApply1 applies a dense single-qubit unitary (U) to Q.
	SchedApply1 uint8 = iota
	// SchedApply1RD applies a single-qubit unitary with real diagonal
	// entries (RealDiag2) — every pulse rotation.
	SchedApply1RD
	// SchedChannel applies a compiled decoherence channel (Ch; see
	// NewChannelTable for the channels a table accepts).
	SchedChannel
	// SchedCZ applies diag(1,1,1,−1) to (Q, Qb) via NegateBoth.
	SchedCZ
	// SchedApply2 applies a dense two-qubit unitary (U) to (Q, Qb). The
	// machine records no two-qubit gate but the CZ, so no recorded
	// schedule contains one; a population carry never passes through it.
	SchedApply2
	// SchedMeasure runs the projective measurement of Q; the measure
	// callback completes the machine's measurement chain.
	SchedMeasure
)

// SchedOp is one specialized, closure-free step of a compiled schedule.
type SchedOp struct {
	Kind uint8
	// PhaseSafe is ignored: a SchedCZ step always passes a population
	// carry through (negation keeps every |a|² bit) and a SchedApply2
	// step never does.
	//
	// Deprecated: kept so existing schedule literals compile.
	PhaseSafe bool
	// CarryFor names the qubit whose populations this step should carry
	// to the next population consumer (-1: none). The compiler only sets
	// it in configurations the kernels support: channels carry for any
	// qubit, unitary and measure steps for their own qubit only.
	CarryFor int16
	Q, Qb    int16
	U        Matrix
	Ch       *ChannelTable
}

// RunSchedule executes one shot of a compiled schedule. measure is
// invoked for every SchedMeasure step with the projected outcome; it
// must complete the rest of the machine's measurement chain
// (discrimination sampling, recording, result delivery) and may consume
// the same PRNG. A channel step's population pass and its check for the
// hot case — pricing resolves to the first operator, which is diagonal —
// are inline here, and the hot case's apply is one call to scaleDiagReal,
// the kernel applyChannelSampled uses for the same operator. Everything rarer re-enters applyChannelSampled with the same
// populations and variate, so the selection is reproduced bit for bit.
//
// in/inQ seed the population carry and the returned values hand the
// trailing carry back: steady-state shots run back to back on one
// machine, so a carry accumulated by the last step of shot k prices the
// first consumer of shot k+1 (same state, same accumulation order — the
// schedule is circular). Pass an invalid carry for the first shot.
func (t *Trajectory) RunSchedule(ops []SchedOp, in PopCarry, inQ int, measure func(q, outcome int)) (PopCarry, int) {
	psi := t.Psi
	src := t.src
	carry := in
	carryQ := inQ
	for ii := range ops {
		o := &ops[ii]
		q := int(o.Q)
		switch o.Kind {
		case SchedChannel:
			ct := o.Ch
			nextQ := int(o.CarryFor)
			mask := 1 << (t.nq - 1 - q)
			r := src.Float64()
			var p0, p1 float64
			if carry.Valid && carryQ == q {
				p0, p1 = carry.P0, carry.P1
			} else {
				for base := 0; base < len(psi); base += mask << 1 {
					for i := base; i < base+mask; i++ {
						a0, a1 := psi[i], psi[i+mask]
						p0 += real(a0)*real(a0) + imag(a0)*imag(a0)
						p1 += real(a1)*real(a1) + imag(a1)*imag(a1)
					}
				}
			}
			carryQ = nextQ
			// Hot path: the first operator absorbs the draw and is
			// diagonal. The selection comparison is exactly the general
			// pricing loop's first iteration (cum = 0.0 + p), so the
			// branch decision is bit-identical.
			fp := ct.fw0*p0 + ct.fw1*p1
			if ct.fkind != chanDiag || r >= fp {
				carry = t.applyChannelSampled(ct, q, mask, p0, p1, r, nextQ)
				continue
			}
			rinv := 1 / math.Sqrt(fp)
			carry = t.scaleDiagReal(q, mask, ct.fr0*rinv, ct.fr1*rinv, nextQ)
		case SchedApply1RD:
			if int(o.CarryFor) == q {
				carry = t.Apply1RDCarry(o.U, q)
				carryQ = q
			} else {
				t.Apply1RD(o.U, q)
				carry.Valid = false
			}
		case SchedApply1:
			if int(o.CarryFor) == q {
				carry = t.Apply1Carry(o.U, q)
				carryQ = q
			} else {
				t.Apply1(o.U, q)
				carry.Valid = false
			}
		case SchedCZ:
			t.NegateBoth(q, int(o.Qb))
		case SchedApply2:
			t.Apply2(o.U, q, int(o.Qb))
			carry.Valid = false
		case SchedMeasure:
			in := carry
			if carryQ != q {
				in.Valid = false
			}
			p1 := in.P1
			if !in.Valid {
				p1 = t.ProbExcited(q)
			}
			var outcome int
			outcome, carry = t.MeasureCarry(q, p1, src.Float64(), int(o.CarryFor) == q)
			carryQ = q
			measure(q, outcome)
		}
	}
	return carry, carryQ
}
