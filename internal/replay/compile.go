// compile.go holds the compiled form of a shot schedule: closure-free
// specialized steps (qphys.SchedOp) run by devirtualized executors.
// Replaying the recorded operations one call at a time through the
// qphys.State interface would pay, per shot, for interface dispatch on
// every operation, per-call operator classification and Born-weight
// derivation inside ApplyKraus1, and one population pass per channel
// application and measurement. The compiled form hoists all of that out
// of the shot loop:
//
//   - The recorder (replay.go) lowers each operation applied to the
//     state to exactly one step that applies the same operator, as the
//     operation is observed — the schedule is never rewritten,
//     reordered, or merged, so compiled replay performs the full
//     pipeline's arithmetic. A recorded shot is thus already the
//     compiled form; compiling it only links its population carries.
//     Steps cover exactly the operation classes the machine records:
//     single-qubit unitaries (pulse rotations and detuning phases; those
//     with real diagonal entries, every pulse rotation, take the cheaper
//     Apply1RD kernel; a timing-only pulse applies nothing and has no
//     step), decoherence idles, the flux CZ (SchedCZ) and measurements.
//   - Each decoherence channel's Kraus pricing coefficients and operator
//     tables are hoisted once per recorder into a qphys.ChannelTable,
//     deduplicated by the machine cache's Kraus-slice identity. A
//     recorded idle always carries 4 or 8 real-diagonal or anti-diagonal
//     operators (qphys.DecoherenceChannel; identity idles are never
//     recorded), the one channel class a table accepts. The PRNG draw
//     order per step is unchanged.
//   - Population passes are chained: a channel application or measurement
//     asks the nearest preceding state-modifying step to accumulate its
//     populations during that step's own application pass, in the exact
//     addition order a standalone pass would use. Carries flow through
//     the CZ, which preserves every |a|² bit for bit. The CZ is the
//     machine's only two-qubit gate, so the recorder panics on any other
//     two-qubit operator, as NewChannelTable does on a channel it does
//     not compile.
//   - The executors are devirtualized, and a lane's backend is chosen in
//     one place (executor): the trajectory backend runs the whole shot
//     in one qphys.RunSchedule pass (or, for lockstep lanes,
//     qphys.TrajBatch.RunScheduleBatch); the density backend gets direct
//     concrete-type calls.
//
// All per-schedule scratch (step slice, channel tables, measurement
// buffer) is allocated before the replay loop, so compiled replay
// performs zero heap allocations per shot.
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
// lanes of one lockstep group) and by the LeadEquivalent lanes that
// replayed their lead from them, so what is particular to the machine
// lives here: warm reports that the entry's cold shot is proven for
// this machine — by its own shot-0 recording at a reset point, or by a
// LeadEquivalent lane of the same engine call — while its µop unit was
// at definition generation gen.
type memoSlot struct {
	e    *entry
	warm bool
	gen  uint64
}

// entry is a proven program: the compiled steady-state shot (which fresh
// recordings are also validated against) and — when one was recorded at
// a reset point — the cold-start shot. An entry is immutable once
// published: shared entries are read by several shot workers at once.
type entry struct {
	c    *compiled
	cold *coldShot
}

// coldShot is shot 0 of a reset machine, stored relative to the steady
// shot it precedes. The two differ only in each qubit's first idle,
// which runs from time zero, so the cold shot keeps only its head — the
// steps before its longest common suffix with the steady shot — and
// replays that suffix from the steady compiled form. (RB m=128: the
// head is step 0 of 504; the d=3 repcode: steps 0–26 of 52.)
type coldShot struct {
	// c is the head, linked without the wrap-around link; c.pulses is
	// the whole cold shot's PulsesPlayed increment.
	c    *compiled
	tail int // first step of the shared suffix in the steady compiled form
}

// newColdShot builds the stored form of cold, a shot-0 recording, next
// to the steady compiled form c.
func newColdShot(c, cold *compiled) *coldShot {
	post := 0
	for post < len(cold.ops) && post < len(c.ops) && stepEqual(&cold.ops[len(cold.ops)-1-post], &c.ops[len(c.ops)-1-post]) {
		post++
	}
	head := &compiled{ops: slices.Clone(cold.ops[:len(cold.ops)-post]), pulses: cold.pulses, nMD: cold.nMD}
	head.linkCarries(false)
	return &coldShot{c: head, tail: len(c.ops) - post}
}

// matches reports whether cold, a fresh shot-0 recording, replays as the
// stored cold shot, whose shared suffix is that of c, the steady form it
// was stored against.
func (cs *coldShot) matches(c, cold *compiled) bool {
	n := len(cs.c.ops)
	return cold.pulses == cs.c.pulses && len(cold.ops) == n+len(c.ops)-cs.tail &&
		stepsEqual(cold.ops[:n], cs.c.ops) && stepsEqual(cold.ops[n:], c.ops[cs.tail:])
}

// memoize resolves machine m's entry for program p after a lead shot
// window that recorded the steady shot steady and, at a reset point,
// the cold shot cold (nil otherwise), and returns it. Keyed by program
// identity, the memo lets a machine pooled for a sweep (or for the batch
// service, whose assembly cache keeps program pointers stable) compile
// each program once, however many programs interleave on it. cand, when
// non-nil, is an entry of the same engine call, preferred so a lockstep
// group's machines share one compiled form. An entry is stored on m
// only when m's own recordings replay as it: a hit keeps the entry, a
// steady-only hit gains a new entry that shares the compiled steady
// form, and a miss compiles the recording itself. On a pipeline lead
// every hit is validated against the fresh recording, so a stale entry
// can only miss. An entry stored with a cold shot is proven: m may
// replay its lead from it at a later reset point, and so may a
// LeadEquivalent lane of the same call (warmEntry).
func memoize(m *core.Machine, p *isa.Program, steady, cold *compiled, cand *entry) *entry {
	mm, _ := m.ReplayCache.(memo)
	own := mm[p]
	if cold == nil && own.e != nil && sameShot(own.e.c, steady) {
		// Keeps a cold shot this machine proved at an earlier reset
		// point.
		return own.e
	}
	var hit *entry // an entry whose steady form matches, cold shot or not
	var e *entry
	for _, x := range [2]*entry{cand, own.e} {
		if x == nil || !sameShot(x.c, steady) {
			continue
		}
		if cold == nil || (x.cold != nil && x.cold.matches(x.c, cold)) {
			e = x
			break
		}
		if hit == nil {
			hit = x
		}
	}
	if e == nil {
		if hit != nil {
			e = &entry{c: hit.c}
		} else {
			// Compiling takes ownership of the recording.
			steady.linkCarries(true)
			e = &entry{c: steady}
		}
		if cold != nil {
			e.cold = newColdShot(e.c, cold)
		}
	}
	remember(m, p, memoSlot{e: e, warm: cold != nil, gen: m.UOp.Generation()})
	return e
}

// remember stores s as machine m's slot for program p. A full memo is
// flushed before a new program enters it.
func remember(m *core.Machine, p *isa.Program, s memoSlot) {
	mm, _ := m.ReplayCache.(memo)
	if _, ok := mm[p]; mm == nil || !ok && len(mm) >= maxCompiledPrograms {
		mm = make(memo)
		m.ReplayCache = mm
	}
	mm[p] = s
}

// prover is a lane of one engine call whose machine holds a proven
// entry for the call's program: one with a cold shot recorded at a
// reset point of a safe run of more than detectShots shots.
type prover struct {
	m *core.Machine
	e *entry
}

// warmEntry returns the entry from which machine m may replay the lead
// shot window of a shots-shot run of p instead of running the pipeline,
// or nil. It is the lead-skip rule, and the one place that states it.
// m must be at its reset point (atReset, from TakeResetPoint), the run
// must have more than detectShots shots (shorter runs stay on the
// pipeline), and m must keep no event timeline (only the pipeline
// produces it). Then either m holds a cold
// shot it proved under its current µop definitions (UploadPulse and
// SetQubitParams already drop the memo), or one of the call's provers
// is core.Machine.LeadEquivalent to m — equal configs up to Seed, and
// neither customized since core.New — and m stores that prover's entry
// as its own proven one. No fresh recording re-validates such a hit:
// the memo decides correctness alone (see core.Machine.ReplayCache).
func warmEntry(m *core.Machine, p *isa.Program, shots int, atReset bool, provers []prover) *entry {
	if !atReset || shots <= detectShots || m.Cfg.TraceEvents {
		return nil
	}
	mm, _ := m.ReplayCache.(memo)
	if s := mm[p]; s.warm && s.gen == m.UOp.Generation() {
		return s.e
	}
	for _, pr := range provers {
		if pr.m.LeadEquivalent(m) {
			remember(m, p, memoSlot{e: pr.e, warm: true, gen: m.UOp.Generation()})
			return pr.e
		}
	}
	return nil
}

// compiled is one shot's steps: as recorded, and once linkCarries has
// run, compiled.
type compiled struct {
	ops []qphys.SchedOp
	// pulses is the shot's PulsesPlayed increment (pulse playbacks —
	// including timing-only ones, which have no step — and two-qubit flux
	// pulses), read from the machine's counter around the recorded shot
	// and applied once per replayed shot.
	pulses uint64
	// nMD is the number of measurements per shot (sizes the MD buffer).
	nMD int
}

// linkCarries links the population carries of a recorded shot; wrap
// adds the wrap-around link of a steady-state schedule, whose shots run
// back to back.
func (c *compiled) linkCarries(wrap bool) {
	// Link population carries: every population consumer (a channel
	// application prices from one population pass; a measurement samples
	// from one) asks the nearest preceding state-modifying step to
	// accumulate its populations during that step's own application pass.
	// CZ steps are transparent (they preserve |a|² bit for bit). Producer
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
		case qphys.SchedCZ:
			d.Apply2(o.U, int(o.Q), int(o.Qb))
		case qphys.SchedMeasure:
			md = append(md, MD{Qubit: int(o.Q), Result: m.MeasureQubit(int(o.Q))})
		default:
			panic(fmt.Sprintf("replay: the density executor cannot run schedule step kind %d", o.Kind))
		}
	}
	return md
}

// executor binds machine m's state backend, once, to a function that
// runs one shot's steps and appends its measurements to md; the caller
// adds the shot's PulsesPlayed increment. It is the one place a
// replayed shot's backend is chosen. The trajectory function threads
// the population carry from each call into the next, so its calls must
// run back to back on the state: the schedule is circular.
func executor(m *core.Machine) func(ops []qphys.SchedOp, md []MD) []MD {
	switch state := m.State.(type) {
	case *qphys.Trajectory:
		// The trajectory executor lives in qphys (one devirtualized pass
		// per shot); the callback finishes each measurement through the
		// machine chain and collects the shot's results.
		var out []MD
		measure := func(q, outcome int) {
			out = append(out, MD{Qubit: q, Result: m.FinishMeasure(outcome)})
		}
		carry, carryQ := qphys.PopCarry{}, -1
		return func(ops []qphys.SchedOp, md []MD) []MD {
			out = md
			carry, carryQ = state.RunSchedule(ops, carry, carryQ, measure)
			return out
		}
	case *qphys.Density:
		return func(ops []qphys.SchedOp, md []MD) []MD { return runDensity(m, state, ops, md) }
	}
	panic(fmt.Sprintf("replay: no compiled executor for state backend %T", m.State))
}

// run replays shots first..shots-1 of lane ln from the compiled
// schedule through shot, the lane's executor. The context is consulted
// every ctxCheckShots shots (bounded-staleness preemption); a preempted
// run returns the wrapped ctx.Err() with the count of shots already
// replayed. Shot indices reported to OnShot and in preemption messages
// are offset by ln.BaseShot: shot-sharded callers run each shard as its
// own engine invocation but number shots globally.
func (c *compiled) run(ctx context.Context, ln BatchLane, shot func([]qphys.SchedOp, []MD) []MD, first, shots int) (int, error) {
	md := make([]MD, 0, c.nMD)
	for s := first; s < shots; s++ {
		if (s-first)%ctxCheckShots == 0 {
			if err := ctx.Err(); err != nil {
				return s - first, fmt.Errorf("replay: preempted at shot %d: %w", ln.BaseShot+s, err)
			}
		}
		md = shot(c.ops, md[:0])
		ln.M.PulsesPlayed += c.pulses
		if ln.OnShot != nil {
			ln.OnShot(ln.BaseShot+s, md)
		}
	}
	return shots - first, nil
}

// replayLead runs a warm lane's lead shot window (shots 0 to
// detectShots-1) from its proven entry instead of the pipeline: shot 0
// from the cold shot (its head, then the shared suffix of the steady
// form), shots 1 and 2 from the steady schedule, all on one scalar
// executor. Each shot applies the operations the pipeline would, in its
// order, so every result and the state after every shot are those of
// the pipeline lead.
func (e *entry) replayLead(ctx context.Context, ln BatchLane) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("replay: preempted before shot %d: %w", ln.BaseShot, err)
	}
	shot := executor(ln.M)
	md := shot(e.cold.c.ops, make([]MD, 0, e.c.nMD))
	md = shot(e.c.ops[e.cold.tail:], md)
	ln.M.PulsesPlayed += e.cold.c.pulses
	if ln.OnShot != nil {
		ln.OnShot(ln.BaseShot, md)
	}
	_, err := e.c.run(ctx, ln, shot, 1, detectShots)
	return err
}
