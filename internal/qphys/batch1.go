package qphys

import "math"

// batch1.go — the one-qubit lane kernel of TrajBatch.
//
// At one qubit every step touches two amplitudes per lane, so a span
// pass costs more to set up than it does work, and a shot is bound by
// latency: each idle channel waits on the serial draw → population →
// √ → ÷ → scale chain of its lane. runSchedule1 instead runs one plain
// loop over the lanes per step, with a lane's two amplitudes in locals.
// The lanes' chains are independent, so the CPU overlaps them; per lane
// the arithmetic is RunSchedule's, expression for expression. Every
// draw that does not select a diagonal first operator, and every
// measurement, runs the scalar kernels on the scratch register, with the
// lane's own draw, populations and PRNG. The scalar executor's one-qubit
// body (Trajectory.runSchedule1, sched.go) runs a lone shot with these
// same expressions, so a lane and a scalar shard agree term for term.

// runSchedule1 is RunScheduleBatch for a one-qubit register. Every step
// addresses qubit 0, so the carry target is 0 or none.
func (b *TrajBatch) runSchedule1(ops []SchedOp, measure func(lane, q, outcome int)) {
	L := b.L
	lo, hi := b.amp[:L:L], b.amp[L:2*L:2*L]
	carry, srcs := b.carry[:L:L], b.srcs[:L:L]
	for ii := range ops {
		o := &ops[ii]
		switch o.Kind {
		case SchedChannel:
			ct := o.Ch
			nextQ := int(o.CarryFor)
			carryHit := b.carryQ == 0
			fast := ct.fkind == chanDiag
			for l := 0; l < L; l++ {
				a0, a1 := lo[l], hi[l]
				r := srcs[l].Float64()
				var p0, p1 float64
				if carryHit && carry[l].Valid {
					p0, p1 = carry[l].P0, carry[l].P1
				} else {
					p0 = real(a0)*real(a0) + imag(a0)*imag(a0)
					p1 = real(a1)*real(a1) + imag(a1)*imag(a1)
				}
				fp := ct.fw0*p0 + ct.fw1*p1
				if !fast || r >= fp {
					carry[l] = b.channelTail1(l, ct, p0, p1, r, nextQ)
					continue
				}
				rinv := 1 / math.Sqrt(fp)
				r0, r1 := ct.fr0*rinv, ct.fr1*rinv
				re0, im0 := real(a0)*r0, imag(a0)*r0
				re1, im1 := real(a1)*r1, imag(a1)*r1
				lo[l], hi[l] = complex(re0, im0), complex(re1, im1)
				if nextQ == 0 {
					carry[l] = PopCarry{P0: re0*re0 + im0*im0, P1: re1*re1 + im1*im1, Valid: true}
				} else {
					carry[l] = PopCarry{}
				}
			}
			b.carryQ = nextQ
		case SchedApply1RD:
			r00, r11 := real(o.U.Data[0]), real(o.U.Data[3])
			u01, u10 := o.U.Data[1], o.U.Data[2]
			withCarry := o.CarryFor == 0
			for l := 0; l < L; l++ {
				a0, a1 := lo[l], hi[l]
				x := u01 * a1
				y := u10 * a0
				v0re, v0im := real(a0)*r00+real(x), imag(a0)*r00+imag(x)
				v1re, v1im := real(y)+real(a1)*r11, imag(y)+imag(a1)*r11
				lo[l], hi[l] = complex(v0re, v0im), complex(v1re, v1im)
				if withCarry {
					carry[l] = PopCarry{P0: v0re*v0re + v0im*v0im, P1: v1re*v1re + v1im*v1im, Valid: true}
				} else {
					carry[l].Valid = false
				}
			}
			if withCarry {
				b.carryQ = 0
			}
		case SchedApply1:
			u00, u01, u10, u11 := o.U.Data[0], o.U.Data[1], o.U.Data[2], o.U.Data[3]
			withCarry := o.CarryFor == 0
			for l := 0; l < L; l++ {
				a0, a1 := lo[l], hi[l]
				v0 := u00*a0 + u01*a1
				v1 := u10*a0 + u11*a1
				lo[l], hi[l] = v0, v1
				if withCarry {
					carry[l] = PopCarry{
						P0:    real(v0)*real(v0) + imag(v0)*imag(v0),
						P1:    real(v1)*real(v1) + imag(v1)*imag(v1),
						Valid: true,
					}
				} else {
					carry[l].Valid = false
				}
			}
			if withCarry {
				b.carryQ = 0
			}
		case SchedMeasure:
			wantCarry := o.CarryFor == 0
			carryHit := b.carryQ == 0
			s := b.scratch
			for l := 0; l < L; l++ {
				s.Psi[0], s.Psi[1] = lo[l], hi[l]
				var p1 float64
				if carryHit && carry[l].Valid {
					p1 = carry[l].P1
				} else {
					p1 = s.ProbExcited(0)
				}
				var outcome int
				outcome, carry[l] = s.MeasureCarry(0, p1, srcs[l].Float64(), wantCarry)
				lo[l], hi[l] = s.Psi[0], s.Psi[1]
				measure(l, 0, outcome)
			}
			b.carryQ = 0
		default:
			rejectStep("RunScheduleBatch on a one-qubit batch", o.Kind)
		}
	}
}

// channelTail1 runs lane l's channel selection through the scalar tail
// on the scratch register, with the lane's draw and populations.
func (b *TrajBatch) channelTail1(l int, ct *ChannelTable, p0, p1, r float64, nextQ int) PopCarry {
	psi := b.scratch.Psi
	psi[0], psi[1] = b.amp[l], b.amp[b.L+l]
	c := b.scratch.applyChannelSampled(ct, 0, 1, p0, p1, r, nextQ)
	b.amp[l], b.amp[b.L+l] = psi[0], psi[1]
	return c
}
