// compile.go turns a validated shot schedule into a compiled form:
// closure-free specialized steps (qphys.SchedOp) bound to the concrete
// state-backend type. Replaying the recorded operations one call at a
// time through the qphys.State interface would pay, per shot, for
// interface dispatch on every operation, per-call operator
// classification and Born-weight derivation inside ApplyKraus1, and one
// population pass per channel application and measurement. Compilation
// hoists all of that out of the shot loop:
//
//   - Every recorded operation lowers to exactly one step that applies
//     the same operator — the schedule is never rewritten, reordered, or
//     merged, so compiled replay performs the full pipeline's arithmetic.
//     Unitaries with real diagonal entries (every pulse rotation) are
//     classified for the cheaper Apply1RD kernel.
//   - Each decoherence channel's axis-aligned Kraus pricing coefficients
//     and operator tables are hoisted once per schedule into a
//     qphys.ChannelTable, deduplicated by the machine cache's Kraus-slice
//     identity. The PRNG draw order per step is unchanged.
//   - Population passes are chained: a channel application or measurement
//     asks the nearest preceding state-modifying step to accumulate its
//     populations during that step's own application pass, in the exact
//     addition order a standalone pass would use. Carries flow through
//     phase-safe two-qubit gates (CZ), which preserve every |a|² bit for
//     bit.
//   - The executors are devirtualized: the trajectory backend runs the
//     whole shot in one qphys.RunSchedule pass (or, for lockstep lanes,
//     qphys.TrajBatch.RunScheduleBatch); the density backend gets direct
//     concrete-type calls.
//
// All per-schedule scratch (step slice, channel tables, measurement
// buffer) is allocated at compile time, so compiled replay performs zero
// heap allocations per shot.
package replay

import (
	"context"
	"fmt"

	"quma/internal/core"
	"quma/internal/qphys"
)

// compileCache is one entry of the machine-resident compiled-schedule
// memo (core.Machine.ReplayCache holds a map keyed by *isa.Program): the
// recorded schedule the entry was built from, for entry-for-entry
// validation, and the compiled form.
type compileCache struct {
	sched []op
	c     *compiled
}

// compiled is a shot schedule after compilation.
type compiled struct {
	ops []qphys.SchedOp
	// pulses is the per-shot PulsesPlayed increment (pulse playbacks —
	// including timing-only zero-rotation ones — and two-qubit flux
	// pulses), applied once per replayed shot instead of per operation.
	pulses uint64
	// nMD is the number of measurements per shot (sizes the MD buffer).
	nMD int
}

// compileSchedule compiles a recorded steady-state schedule. Channel
// tables are deduplicated by the identity of the machine-cached Kraus
// slice, so every application of one decoherence channel shares one
// table.
func compileSchedule(sched []op) *compiled {
	c := &compiled{}
	tables := make(map[*qphys.Matrix]*qphys.ChannelTable)
	addUnitary := func(q int, u qphys.Matrix) {
		kind := qphys.SchedApply1
		if qphys.RealDiag2(u) {
			kind = qphys.SchedApply1RD
		}
		c.ops = append(c.ops, qphys.SchedOp{Kind: kind, Q: int16(q), U: u, CarryFor: -1})
	}
	for i := range sched {
		o := &sched[i]
		switch o.kind {
		case opIdle:
			if o.u.N != 0 {
				addUnitary(o.q, o.u)
			}
			if len(o.kraus) == 1 {
				// ApplyKraus1 applies a single-operator channel as a plain
				// unitary without drawing a variate, so it lowers like one.
				addUnitary(o.q, o.kraus[0])
			} else if o.kraus != nil {
				ct, ok := tables[&o.kraus[0]]
				if !ok {
					ct = qphys.NewChannelTable(o.kraus)
					tables[&o.kraus[0]] = ct
				}
				c.ops = append(c.ops, qphys.SchedOp{Kind: qphys.SchedChannel, Q: int16(o.q), Ch: ct, CarryFor: -1})
			}
		case opPulse:
			if o.u.N != 0 {
				addUnitary(o.q, o.u)
			}
			c.pulses++
		case opGate2:
			kind := qphys.SchedApply2
			if qphys.IsCZ(o.u) {
				kind = qphys.SchedCZ
			}
			c.ops = append(c.ops, qphys.SchedOp{
				Kind: kind, Q: int16(o.q), Qb: int16(o.qb), U: o.u,
				CarryFor: -1, PhaseSafe: phaseSafeGate2(o.u),
			})
			c.pulses++
		case opMeasure:
			c.ops = append(c.ops, qphys.SchedOp{Kind: qphys.SchedMeasure, Q: int16(o.q), CarryFor: -1})
			c.nMD++
		}
	}
	// Link population carries: every population consumer (a channel
	// application prices from one population pass; a measurement samples
	// from one) asks the nearest preceding state-modifying step to
	// accumulate its populations during that step's own application pass.
	// Phase-safe gate2 steps are transparent (they preserve |a|² bit for
	// bit). Producer eligibility follows the kernels: a channel can carry
	// any qubit; a unitary or a measurement only its own qubit — their
	// passes are pair-ordered, and a cross-qubit carry would have to
	// revisit half the state, the very pass it is meant to save (measured
	// twice to cost more than a standalone pass; see ROADMAP). The
	// executor still validates every carry at runtime: an anti-diagonal
	// or dense operator draw produces none.
	last := -1
	for i := range c.ops {
		s := &c.ops[i]
		if last >= 0 {
			linkCarry(&c.ops[last], s)
		}
		if !carryTransparent(s) {
			last = i
		}
	}
	// Wrap-around link: steady-state shots run back to back on one
	// machine, so the schedule is circular — the last state-modifying
	// step of shot k can carry populations for the first consumer of
	// shot k+1 (the state is the same and the accumulation order matches
	// a fresh pass; the executor threads the carry between shots).
	if last >= 0 {
		for i := range c.ops {
			s := &c.ops[i]
			linkCarry(&c.ops[last], s)
			if !carryTransparent(s) {
				break
			}
		}
	}
	return c
}

// linkCarry asks producer p to carry populations for step s when s is
// a population consumer and p's kernel can: a channel carries any
// qubit, a unitary or a measurement only its own.
func linkCarry(p, s *qphys.SchedOp) {
	if s.Kind != qphys.SchedChannel && s.Kind != qphys.SchedMeasure {
		return
	}
	switch p.Kind {
	case qphys.SchedChannel:
		p.CarryFor = s.Q
	case qphys.SchedApply1, qphys.SchedApply1RD, qphys.SchedMeasure:
		if p.Q == s.Q {
			p.CarryFor = s.Q
		}
	}
}

// carryTransparent reports whether step s leaves every |a|² bit
// unchanged (a CZ or a phase-safe gate2), so a carry can pass over it.
func carryTransparent(s *qphys.SchedOp) bool {
	return s.Kind == qphys.SchedCZ || (s.Kind == qphys.SchedApply2 && s.PhaseSafe)
}

// phaseSafeGate2 reports whether a two-qubit unitary is diagonal with
// every diagonal entry in {1, −1, i, −i}. Such a gate multiplies each
// amplitude by a unit that changes at most the sign or position of its
// real/imaginary parts, so |a|² terms — squares summed with IEEE's
// commutative addition — keep the same bits, and a population carry
// accumulated before the gate equals a standalone pass run after it.
func phaseSafeGate2(u qphys.Matrix) bool {
	if u.N != 4 {
		return false
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			v := u.Data[i*4+j]
			if i != j {
				if v != 0 {
					return false
				}
				continue
			}
			re, im := real(v), imag(v)
			if !(im == 0 && (re == 1 || re == -1)) && !(re == 0 && (im == 1 || im == -1)) {
				return false
			}
		}
	}
	return true
}

// runDensity executes one compiled shot against the devirtualized density
// backend. The density kernels apply channels exactly (no PRNG, no
// populations), so the win here is hoisted operator tables and direct
// calls.
func (c *compiled) runDensity(m *core.Machine, d *qphys.Density, md []MD) []MD {
	for i := range c.ops {
		o := &c.ops[i]
		switch o.Kind {
		case qphys.SchedApply1, qphys.SchedApply1RD:
			d.Apply1(o.U, int(o.Q))
		case qphys.SchedChannel:
			d.ApplyChannel(o.Ch, int(o.Q))
		case qphys.SchedCZ, qphys.SchedApply2:
			d.Apply2(o.U, int(o.Q), int(o.Qb))
		case qphys.SchedMeasure:
			md = append(md, MD{Qubit: int(o.Q), Result: m.MeasureQubit(int(o.Q))})
		}
	}
	m.PulsesPlayed += c.pulses
	return md
}

// run replays shots first..shots-1 from the compiled schedule, binding
// the whole shot loop to the concrete backend type once. The context is
// consulted every ctxCheckShots shots (bounded-staleness preemption); a
// preempted run returns the wrapped ctx.Err() with the count of shots
// already replayed. base offsets the shot indices reported to onShot and
// in preemption messages (Options.BaseShot): shot-sharded callers run
// each shard as its own engine invocation but number shots globally.
func (c *compiled) run(ctx context.Context, m *core.Machine, base, first, shots int, onShot func(int, []MD)) (int, error) {
	md := make([]MD, 0, c.nMD)
	replayed := 0
	check := func(shot int) error {
		if (shot-first)%ctxCheckShots != 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replay: preempted at shot %d: %w", base+shot, err)
		}
		return nil
	}
	switch state := m.State.(type) {
	case *qphys.Trajectory:
		// The trajectory executor lives in qphys (one devirtualized pass
		// per shot); the callback finishes each measurement through the
		// machine chain and collects the shot's results. The population
		// carry threads across shots — the schedule is circular.
		measure := func(q, outcome int) {
			md = append(md, MD{Qubit: q, Result: m.FinishMeasure(outcome)})
		}
		carry, carryQ := qphys.PopCarry{}, -1
		for shot := first; shot < shots; shot++ {
			if err := check(shot); err != nil {
				return replayed, err
			}
			md = md[:0]
			carry, carryQ = state.RunSchedule(c.ops, carry, carryQ, measure)
			m.PulsesPlayed += c.pulses
			replayed++
			if onShot != nil {
				onShot(base+shot, md)
			}
		}
	case *qphys.Density:
		for shot := first; shot < shots; shot++ {
			if err := check(shot); err != nil {
				return replayed, err
			}
			md = c.runDensity(m, state, md[:0])
			replayed++
			if onShot != nil {
				onShot(base+shot, md)
			}
		}
	default:
		return 0, fmt.Errorf("replay: no compiled executor for state backend %T", m.State)
	}
	return replayed, nil
}
