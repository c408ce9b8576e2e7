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
//     Compilation covers exactly the operation classes the machine
//     records: single-qubit unitaries (pulse rotations and detuning
//     phases; those with real diagonal entries, every pulse rotation,
//     take the cheaper Apply1RD kernel), decoherence idles, the flux CZ
//     (SchedCZ) and measurements.
//   - Each decoherence channel's Kraus pricing coefficients and operator
//     tables are hoisted once per schedule into a qphys.ChannelTable,
//     deduplicated by the machine cache's Kraus-slice identity. A
//     recorded idle always carries 4 or 8 real-diagonal or anti-diagonal
//     operators (qphys.DecoherenceChannel; identity idles are never
//     recorded), the one channel class a table accepts. The PRNG draw
//     order per step is unchanged.
//   - Population passes are chained: a channel application or measurement
//     asks the nearest preceding state-modifying step to accumulate its
//     populations during that step's own application pass, in the exact
//     addition order a standalone pass would use. Carries flow through
//     the CZ, which preserves every |a|² bit for bit; any other
//     two-qubit gate (none is recorded) lowers to SchedApply2 and breaks
//     the chain.
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
	"slices"

	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

// memo is the machine-resident memo (core.Machine.ReplayCache holds
// one), keyed by program identity.
type memo map[*isa.Program]memoSlot

// memoSlot is one machine's hold on a program's entry. Entries are
// shared by every machine whose own recordings value-equal them (the
// lanes of one lockstep group), so what is particular to the machine
// lives here: warm reports that this machine's own shot-0 recording,
// made at a reset point while its µop unit was at definition generation
// gen, proved the entry's cold shot.
type memoSlot struct {
	e    *entry
	warm bool
	gen  uint64
}

// entry is a proven program: the recorded steady-state schedule (for
// validation against fresh recordings), its compiled form, and — when
// one was recorded at a reset point — the cold-start shot. An entry is
// immutable once published: shared entries are read by several shot
// workers at once.
type entry struct {
	sched []op
	c     *compiled
	cold  *coldShot
}

// coldShot is shot 0 of a reset machine, stored relative to the steady
// schedule it precedes. The two differ only in each qubit's first idle,
// which runs from time zero, so the cold shot keeps only its head — the
// recording up to its longest common suffix with the steady schedule —
// and replays that suffix from the steady compiled form. (RB m=128: the
// head is op 0 of 504; the d=3 repcode: ops 0–26 of 52.)
type coldShot struct {
	head []op      // the recorded operations before the shared suffix
	post int       // length of the shared suffix, in recorded operations
	c    *compiled // head, compiled without the wrap-around link
	tail int       // first step of the shared suffix in the steady compiled form
	// pulses is the cold shot's PulsesPlayed increment.
	pulses uint64
}

// newColdShot builds the stored form of cold, a shot-0 recording, next
// to the steady schedule sched and its compiled form c.
func newColdShot(sched []op, c *compiled, cold []op) *coldShot {
	post := 0
	for post < len(cold) && post < len(sched) && opEqual(&cold[len(cold)-1-post], &sched[len(sched)-1-post]) {
		post++
	}
	cs := &coldShot{head: slices.Clone(cold[:len(cold)-post]), post: post}
	cs.c = lowerSchedule(cs.head, make(map[*qphys.Matrix]*qphys.ChannelTable))
	cs.c.linkCarries(false)
	// Lowered without tables, the steady schedule's part before the
	// suffix only counts its steps and pulses.
	pre := lowerSchedule(sched[:len(sched)-post], nil)
	cs.tail = len(pre.ops)
	cs.pulses = cs.c.pulses + c.pulses - pre.pulses
	return cs
}

// matches reports whether cold, a fresh shot-0 recording, value-equals
// the stored cold shot. sched is the steady schedule the cold shot was
// stored against, or any schedule value-equal to it: the recording
// machine's own, whose shared cache entries compare by pointer.
func (cs *coldShot) matches(sched, cold []op) bool {
	n := len(cs.head)
	return len(cold) == n+cs.post && schedulesEqual(cold[:n], cs.head) &&
		schedulesEqual(cold[n:], sched[len(sched)-cs.post:])
}

// memoize resolves machine m's entry for program p after a lead shot
// window that recorded the steady schedule sched and, at a reset point,
// the cold shot cold (nil otherwise), and returns it. Keyed by program
// identity, the memo lets a machine pooled for a sweep (or for the batch
// service, whose assembly cache keeps program pointers stable) compile
// each program once, however many programs interleave on it. cand, when
// non-nil, is the entry of the lane's lockstep group, preferred so the
// group's machines share one compiled form. An entry is stored on m
// only when m's own recordings value-equal it: a hit keeps the entry, a
// steady-only hit gains a new entry that shares the compiled steady
// form, and a miss compiles. On a pipeline lead every hit is validated
// against the fresh recording, so a stale entry can only miss.
func memoize(m *core.Machine, p *isa.Program, sched, cold []op, cand *entry) *entry {
	mm, _ := m.ReplayCache.(memo)
	if mm == nil {
		mm = make(memo)
		m.ReplayCache = mm
	}
	own := mm[p]
	if cold == nil && own.e != nil && schedulesEqual(own.e.sched, sched) {
		// Keeps a cold shot this machine proved at an earlier reset
		// point.
		return own.e
	}
	var steady *entry
	var e *entry
	for _, x := range [2]*entry{cand, own.e} {
		if x == nil || !schedulesEqual(x.sched, sched) {
			continue
		}
		if cold == nil || (x.cold != nil && x.cold.matches(sched, cold)) {
			e = x
			break
		}
		if steady == nil {
			steady = x
		}
	}
	if e == nil {
		e = &entry{sched: sched}
		if steady != nil {
			e.sched, e.c = steady.sched, steady.c
		} else {
			e.c = compileSchedule(sched)
		}
		if cold != nil {
			e.cold = newColdShot(e.sched, e.c, cold)
		}
	}
	if _, ok := mm[p]; !ok && len(mm) >= maxCompiledPrograms {
		mm = make(memo)
		m.ReplayCache = mm
	}
	mm[p] = memoSlot{e: e, warm: cold != nil, gen: m.UOp.Generation()}
	return e
}

// warmEntry returns the entry from which machine m may replay the lead
// shot window of a shots-shot run of p instead of running the pipeline,
// or nil. That needs a machine at its reset point (atReset, from
// core.Machine.TakeResetPoint), more than detectShots shots (shorter
// runs stay on the pipeline), no event timeline (only the pipeline
// produces it), and a cold shot this machine proved under its current
// µop definitions (UploadPulse and SetQubitParams already drop the
// memo). No fresh recording re-validates such a hit: the memo decides
// correctness alone (see core.Machine.ReplayCache).
func warmEntry(m *core.Machine, p *isa.Program, shots int, atReset bool) *entry {
	if !atReset || shots <= detectShots || m.Cfg.TraceEvents {
		return nil
	}
	mm, _ := m.ReplayCache.(memo)
	s := mm[p]
	if !s.warm || s.gen != m.UOp.Generation() {
		return nil
	}
	return s.e
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
	c := lowerSchedule(sched, make(map[*qphys.Matrix]*qphys.ChannelTable))
	c.linkCarries(true)
	return c
}

// lowerSchedule lowers every recorded operation to its steps (none, one
// or two each), with no population carries linked. Channel tables are
// built into tables, keyed by Kraus-slice identity; a nil map leaves
// channel steps without a table, which only counts the steps.
func lowerSchedule(sched []op, tables map[*qphys.Matrix]*qphys.ChannelTable) *compiled {
	c := &compiled{}
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
			if o.kraus != nil {
				ct, ok := tables[&o.kraus[0]]
				if !ok && tables != nil {
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
			c.ops = append(c.ops, qphys.SchedOp{Kind: kind, Q: int16(o.q), Qb: int16(o.qb), U: o.u, CarryFor: -1})
			c.pulses++
		case opMeasure:
			c.ops = append(c.ops, qphys.SchedOp{Kind: qphys.SchedMeasure, Q: int16(o.q), CarryFor: -1})
			c.nMD++
		}
	}
	return c
}

// linkCarries links the population carries of a lowered schedule; wrap
// adds the wrap-around link of a steady-state schedule, whose shots run
// back to back.
func (c *compiled) linkCarries(wrap bool) {
	// Link population carries: every population consumer (a channel
	// application prices from one population pass; a measurement samples
	// from one) asks the nearest preceding state-modifying step to
	// accumulate its populations during that step's own application pass.
	// CZ steps are transparent (they preserve |a|² bit for bit); any
	// other two-qubit step is a producer that carries nothing. Producer
	// eligibility follows the kernels: a channel can carry any qubit; a
	// unitary or a measurement only its own qubit — their passes are
	// pair-ordered, and a cross-qubit carry would have to revisit half
	// the state, the very pass it is meant to save (measured twice to
	// cost more than a standalone pass; see ROADMAP). The scalar executor
	// still validates every carry at runtime: an anti-diagonal draw asked
	// to carry for another qubit, or a zero-weight draw, produces none
	// (the lockstep executor's flat pass carries every lane, bit-equal to
	// the pass the scalar executor then runs).
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
	if wrap && last >= 0 {
		for i := range c.ops {
			s := &c.ops[i]
			linkCarry(&c.ops[last], s)
			if !carryTransparent(s) {
				break
			}
		}
	}
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
// unchanged (a CZ), so a carry can pass over it.
func carryTransparent(s *qphys.SchedOp) bool {
	return s.Kind == qphys.SchedCZ
}

// runDensity executes compiled steps against the devirtualized density
// backend, appending the shot's measurements to md; the caller adds the
// shot's PulsesPlayed increment. The density kernels apply channels
// exactly (no PRNG, no populations), so the win here is hoisted
// operator tables and direct calls.
func runDensity(m *core.Machine, d *qphys.Density, ops []qphys.SchedOp, md []MD) []MD {
	for i := range ops {
		o := &ops[i]
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
			md = runDensity(m, state, c.ops, md[:0])
			m.PulsesPlayed += c.pulses
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

// replayLead runs a warm lane's lead shot window (shots 0 to
// detectShots-1) from its proven entry instead of the pipeline: shot 0
// from the cold shot (its head, then the shared suffix of the steady
// form), shots 1 and 2 from the steady schedule, all on the scalar
// executor. Each shot applies the operations the pipeline would, in its
// order, so every result and the state after every shot are those of
// the pipeline lead; the population carry is dropped between the cold
// shot and the steady ones, which changes no bytes.
func (e *entry) replayLead(ctx context.Context, ln BatchLane) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("replay: preempted before shot %d: %w", ln.BaseShot, err)
	}
	m, cs := ln.M, e.cold
	md := make([]MD, 0, e.c.nMD)
	switch state := m.State.(type) {
	case *qphys.Trajectory:
		measure := func(q, outcome int) {
			md = append(md, MD{Qubit: q, Result: m.FinishMeasure(outcome)})
		}
		carry, carryQ := state.RunSchedule(cs.c.ops, qphys.PopCarry{}, -1, measure)
		state.RunSchedule(e.c.ops[cs.tail:], carry, carryQ, measure)
	case *qphys.Density:
		md = runDensity(m, state, cs.c.ops, md)
		md = runDensity(m, state, e.c.ops[cs.tail:], md)
	default:
		return fmt.Errorf("replay: no compiled executor for state backend %T", m.State)
	}
	m.PulsesPlayed += cs.pulses
	if ln.OnShot != nil {
		ln.OnShot(ln.BaseShot, md)
	}
	_, err := e.c.run(ctx, m, ln.BaseShot, 1, detectShots, ln.OnShot)
	return err
}
