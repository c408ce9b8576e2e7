package qphys

import "math"

// sched.go — single-pass execution of a compiled shot schedule on the
// trajectory backend. A schedule compiler (internal/replay) lowers a
// recorded shot into []SchedOp once; RunSchedule then executes the whole
// shot with the channel step's population pass and first-operator check
// inline, the state slice and PRNG hoisted out of the step loop, and
// population carries threaded between steps. On registers of two or more
// qubits (runScheduleN) every amplitude update is a call to the one
// kernel of its operation in compiled.go, and every arithmetic decision
// is bit-identical to executing the same operations through
// Apply1/ApplyKraus1/Measure one call at a time (modulo the sign of
// zeros, which nothing can observe; see compiled.go).
//
// A one-qubit register (runSchedule1) holds two amplitudes, so a kernel
// call costs more than its work and a shot is bound by each idle
// channel's serial draw → population → √ → ÷ → scale chain. There the
// whole shot keeps both amplitudes and the population carry in locals,
// with the one-qubit lane kernel's expressions (batch1.go) term for
// term — the same split RunScheduleBatch makes at one qubit, for the
// same reason. Psi is written only around the rare calls (a channel
// draw that does not select a diagonal first operator, which re-enters
// applyChannelSampled, and a measurement) and at the end of the shot.
// The two bodies are pinned to each other bit for bit on one-qubit
// registers (TestRunSchedule1MatchesRunScheduleN).

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
// the kernel applyChannelSampled uses for the same operator. Everything
// rarer re-enters applyChannelSampled with the same populations and
// variate, so the selection is reproduced bit for bit.
//
// in/inQ seed the population carry and the returned values hand the
// trailing carry back: steady-state shots run back to back on one
// machine, so a carry accumulated by the last step of shot k prices the
// first consumer of shot k+1 (same state, same accumulation order — the
// schedule is circular). Pass an invalid carry for the first shot.
func (t *Trajectory) RunSchedule(ops []SchedOp, in PopCarry, inQ int, measure func(q, outcome int)) (PopCarry, int) {
	if t.nq == 1 {
		return t.runSchedule1(ops, in, inQ, measure)
	}
	return t.runScheduleN(ops, in, inQ, measure)
}

// runScheduleN is RunSchedule's body for any register size, one kernel
// call per step; RunSchedule runs it on registers of two or more qubits.
func (t *Trajectory) runScheduleN(ops []SchedOp, in PopCarry, inQ int, measure func(q, outcome int)) (PopCarry, int) {
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

// runSchedule1 is RunSchedule for a one-qubit register, with the two
// amplitudes (a0, a1) and the carry in locals for the whole shot. Every
// step addresses qubit 0, so the carry target is 0 or none. Each branch
// evaluates what runScheduleN's kernel call computes at mask 1 — the
// population pass, scaleDiagReal, Apply1RD(Carry), Apply1(Carry) —
// expression for expression, and the rare calls see Psi up to date.
func (t *Trajectory) runSchedule1(ops []SchedOp, in PopCarry, inQ int, measure func(q, outcome int)) (PopCarry, int) {
	psi := t.Psi[:2:2]
	src := t.src
	a0, a1 := psi[0], psi[1]
	carry, carryQ := in, inQ
	for ii := range ops {
		o := &ops[ii]
		switch o.Kind {
		case SchedChannel:
			ct := o.Ch
			nextQ := int(o.CarryFor)
			r := src.Float64()
			var p0, p1 float64
			if carry.Valid && carryQ == 0 {
				p0, p1 = carry.P0, carry.P1
			} else {
				p0 = real(a0)*real(a0) + imag(a0)*imag(a0)
				p1 = real(a1)*real(a1) + imag(a1)*imag(a1)
			}
			carryQ = nextQ
			fp := ct.fw0*p0 + ct.fw1*p1
			if ct.fkind != chanDiag || r >= fp {
				psi[0], psi[1] = a0, a1
				carry = t.applyChannelSampled(ct, 0, 1, p0, p1, r, nextQ)
				a0, a1 = psi[0], psi[1]
				continue
			}
			rinv := 1 / math.Sqrt(fp)
			r0, r1 := ct.fr0*rinv, ct.fr1*rinv
			re0, im0 := real(a0)*r0, imag(a0)*r0
			re1, im1 := real(a1)*r1, imag(a1)*r1
			a0, a1 = complex(re0, im0), complex(re1, im1)
			if nextQ == 0 {
				carry = PopCarry{P0: re0*re0 + im0*im0, P1: re1*re1 + im1*im1, Valid: true}
			} else {
				carry = PopCarry{}
			}
		case SchedApply1RD:
			r00, r11 := real(o.U.Data[0]), real(o.U.Data[3])
			x := o.U.Data[1] * a1
			y := o.U.Data[2] * a0
			v0re, v0im := real(a0)*r00+real(x), imag(a0)*r00+imag(x)
			v1re, v1im := real(y)+real(a1)*r11, imag(y)+imag(a1)*r11
			a0, a1 = complex(v0re, v0im), complex(v1re, v1im)
			if o.CarryFor == 0 {
				carry = PopCarry{P0: v0re*v0re + v0im*v0im, P1: v1re*v1re + v1im*v1im, Valid: true}
				carryQ = 0
			} else {
				carry.Valid = false
			}
		case SchedApply1:
			u00, u01, u10, u11 := o.U.Data[0], o.U.Data[1], o.U.Data[2], o.U.Data[3]
			v0 := u00*a0 + u01*a1
			v1 := u10*a0 + u11*a1
			a0, a1 = v0, v1
			if o.CarryFor == 0 {
				carry = PopCarry{
					P0:    real(v0)*real(v0) + imag(v0)*imag(v0),
					P1:    real(v1)*real(v1) + imag(v1)*imag(v1),
					Valid: true,
				}
				carryQ = 0
			} else {
				carry.Valid = false
			}
		case SchedMeasure:
			psi[0], psi[1] = a0, a1
			p1 := carry.P1
			if !carry.Valid || carryQ != 0 {
				p1 = t.ProbExcited(0)
			}
			var outcome int
			outcome, carry = t.MeasureCarry(0, p1, src.Float64(), o.CarryFor == 0)
			carryQ = 0
			measure(0, outcome)
			a0, a1 = psi[0], psi[1]
		default:
			panic("qphys: two-qubit schedule step on a one-qubit register")
		}
	}
	psi[0], psi[1] = a0, a1
	return carry, carryQ
}
