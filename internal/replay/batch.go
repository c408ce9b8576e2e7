// batch.go — the engine's one record/detect/replay protocol. RunBatch
// runs several shot shards ("lanes") in one invocation; Run is RunBatch
// over a single lane. With two or more trajectory lanes, the replayed
// shots run in lockstep on a shared compiled schedule via
// qphys.TrajBatch.
//
// Lead and detection shots stay per lane on the scalar machines — they
// feed each lane's PRNG stream (cold-start transient, recording,
// comparison) and let a lane validate replay safety against its own
// controller and caches, or, on a lane the lead-skip rule admits
// (warmEntry: at its reset point, holding a cold shot its machine
// proved or that a lead-equivalent lane of the same call proved),
// replay that window from the memo on the scalar executor. So a cold
// group of lead-equivalent lanes runs one pipeline lead, its first
// lane's. Only the steady-state replayed shots run batched, and only on
// the lanes that detected safety (or hold a proven entry), hold
// trajectory state, and recorded a schedule value-identical to the
// group's first member. Every other lane completes on its own — the
// full pipeline when unsafe, its own compiled schedule otherwise —
// which is bit-identical anyway: batching is only ever a throughput
// fast path, never a semantic one.
package replay

import (
	"context"
	"fmt"

	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

// BatchLane is one member of a lockstep batch: a machine that would
// otherwise run its own replay.Run invocation. BaseShot and OnShot mean
// exactly what they mean in Options — per-lane global shot numbering
// and per-lane result delivery.
type BatchLane struct {
	M        *core.Machine
	BaseShot int
	// Shots, when positive, is this lane's own shot count; zero runs
	// the count passed to RunBatch.
	Shots  int
	OnShot func(shot int, md []MD)
}

// RunBatch executes the program on every lane — lane.Shots times, or
// shots when that is zero — preserving each lane's bit-exact
// equivalence to a standalone Run(lane.M, p, Options{Shots, Mode,
// OnShot, BaseShot}): same PRNG consumption, same state evolution, same
// OnShot streams, same Stats. The returned slice holds one Stats per
// lane, index-aligned with lanes.
//
// Lanes may differ in shot count. The replaying trajectory lanes run in
// lockstep up to the shortest one's count; the survivors then go on in
// lockstep while two or more remain, and the last one alone on the
// scalar executor. Each switch drops the lanes' population carries,
// which changes no bytes: a carry equals the fresh pass it replaces.
//
// Cancellation and failure abort the whole batch: the first error (a
// shot failure during a lane's full-pipeline shots, or a context
// preemption inside a replayed loop) is returned and the remaining work
// of every lane is abandoned — callers treat the group as one failed
// job, which matches the sharded engine's cancel-the-siblings
// semantics. A panic unwinds with the machines mid-timeline; callers
// must discard them.
func RunBatch(ctx context.Context, p *isa.Program, lanes []BatchLane, shots int, mode Mode) ([]Stats, error) {
	stats := make([]Stats, len(lanes))
	if len(lanes) == 0 {
		return stats, fmt.Errorf("replay: RunBatch requires at least one lane")
	}
	counts := make([]int, len(lanes))
	for i, ln := range lanes {
		counts[i] = shots
		if ln.Shots > 0 {
			counts[i] = ln.Shots
		}
		stats[i].Shots = counts[i]
		if counts[i] <= 0 {
			return stats, fmt.Errorf("replay: Shots must be positive, got %d", counts[i])
		}
	}
	mode, err := ParseMode(string(mode))
	if err != nil {
		return stats, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The recorders collect every full-pipeline shot's measurement
	// results; they are detached on every exit (machines go back to the
	// pool or are discarded, never with a live probe).
	recs := make([]*recorder, len(lanes))
	for i, ln := range lanes {
		recs[i] = &recorder{}
		ln.M.SetProbe(recs[i])
		ln.M.Controller.ResetReplayTracking()
	}
	defer clearProbes(lanes)

	if mode == ModeOff {
		for i, ln := range lanes {
			if err := laneFullShots(ctx, p, recs[i], ln, 0, counts[i]); err != nil {
				return stats, err
			}
			stats[i].Reason = "replay disabled"
		}
		return stats, nil
	}

	// A lane whose lead warmEntry admits replays it from the memo
	// (ents[i] is then its entry). Lanes warm on their own are found
	// first, so that a cold lane can take a warm sibling's entry. Every
	// other lane runs the lead through the pipeline, recording shots 1
	// and 2 and, at a reset point, the cold shot 0; a safe one memoizes
	// at once, so that a later lane can take its entry.
	scheds := make([][]op, len(lanes))
	ents := make([]*entry, len(lanes))
	reasons := make([]string, len(lanes))
	atReset := make([]bool, len(lanes))
	var provers []prover
	for i, ln := range lanes {
		atReset[i] = ln.M.TakeResetPoint()
		if e := warmEntry(ln.M, p, counts[i], atReset[i], nil); e != nil {
			provers = append(provers, prover{ln.M, e})
		}
	}
	var cand *entry // the call's first entry, shared where it matches
	if len(provers) > 0 {
		cand = provers[0].e
	}
	coldOps := 0 // the last cold recording's length sizes the next
	for i, ln := range lanes {
		if e := warmEntry(ln.M, p, counts[i], atReset[i], provers); e != nil {
			if err := e.replayLead(ctx, ln); err != nil {
				return stats, err
			}
			scheds[i], ents[i] = e.sched, e
			continue
		}
		recordCold := atReset[i] && counts[i] > detectShots
		rec := recs[i]
		var rs [detectShots][]op
		for shot := 0; shot < min(counts[i], detectShots); shot++ {
			// Recorded shots go into fresh schedules, each sized from the
			// previous shot's operation count (the cold shot 0 from the
			// previous lane's): shot 1 is kept for the comparison, and
			// shot 2 and the cold shot may be memoized.
			rec.recording = shot > 0 || recordCold
			if rec.recording {
				rec.sched = make([]op, 0, max(rec.ops, coldOps))
			}
			if err := laneFullShots(ctx, p, rec, ln, shot, shot+1); err != nil {
				return stats, err
			}
			if rec.recording {
				rs[shot] = rec.sched
			}
		}
		if rs[0] != nil {
			coldOps = len(rs[0])
		}
		rec.recording = false
		scheds[i] = rs[2]
		switch unsafe := ln.M.Controller.ReplayUnsafeReason(); {
		case counts[i] <= detectShots:
			reasons[i] = "too few shots to amortize recording"
		case unsafe != "":
			reasons[i] = unsafe
		case !schedulesEqual(rs[1], rs[2]):
			reasons[i] = "schedule is not shot-invariant"
		default:
			ents[i] = memoize(ln.M, p, rs[2], rs[0], cand)
			if cand == nil {
				cand = ents[i]
			}
			if rs[0] != nil {
				provers = append(provers, prover{ln.M, ents[i]})
			}
		}
	}

	// Unsafe lanes finish on the full pipeline and safe lanes that
	// cannot join the lockstep group (another backend, or a schedule
	// that differs from the group's) replay their own compiled
	// schedule. The group is every other safe lane: trajectory state,
	// schedule equal to its first member's (schedulesEqual compares by
	// value, so distinct machines of identical configs match), replayed
	// from that member's entry.
	var group []int
	for i, ln := range lanes {
		st := &stats[i]
		if reasons[i] != "" {
			st.Reason = reasons[i]
			if err := laneFullShots(ctx, p, recs[i], ln, detectShots, counts[i]); err != nil {
				return stats, err
			}
			continue
		}
		st.Safe, st.Compiled, st.Lead = true, true, detectShots
		ln.M.SetProbe(nil)
		if _, ok := ln.M.State.(*qphys.Trajectory); ok && (group == nil || schedulesEqual(scheds[group[0]], scheds[i])) {
			group = append(group, i)
			continue
		}
		if st.Replayed, err = ents[i].c.run(ctx, ln.M, ln.BaseShot, detectShots, counts[i], ln.OnShot); err != nil {
			return stats, err
		}
	}
	if group == nil {
		return stats, nil
	}
	return stats, ents[group[0]].c.runLockstep(ctx, lanes, group, counts, stats)
}

// runLockstep replays the group's lanes from their first post-lead shot
// on one compiled schedule: in lockstep on a qphys.TrajBatch while two
// or more lanes have shots left, the last survivor alone on the scalar
// executor. Lockstep runs up to the shortest member's count, then the
// batch hands its state back and the survivors start a new one.
func (c *compiled) runLockstep(ctx context.Context, lanes []BatchLane, group, counts []int, stats []Stats) error {
	md := make([][]MD, len(group))
	for j := range md {
		md[j] = make([]MD, 0, c.nMD)
	}
	measure := func(j, q, outcome int) {
		md[j] = append(md[j], MD{Qubit: q, Result: lanes[group[j]].M.FinishMeasure(outcome)})
	}
	done := detectShots
	for len(group) > 1 {
		end := counts[group[0]]
		trajs := make([]*qphys.Trajectory, len(group))
		for j, i := range group {
			end = min(end, counts[i])
			trajs[j] = lanes[i].M.State.(*qphys.Trajectory)
		}
		batch := qphys.NewTrajBatch(trajs)
		for shot := done; shot < end; shot++ {
			if (shot-done)%ctxCheckShots == 0 {
				if err := ctx.Err(); err != nil {
					batch.Scatter()
					return fmt.Errorf("replay: preempted at shot %d: %w", lanes[group[0]].BaseShot+shot, err)
				}
			}
			for j := range md {
				md[j] = md[j][:0]
			}
			batch.RunScheduleBatch(c.ops, measure)
			for j, i := range group {
				ln := lanes[i]
				ln.M.PulsesPlayed += c.pulses
				stats[i].Replayed++
				if ln.OnShot != nil {
					ln.OnShot(ln.BaseShot+shot, md[j])
				}
			}
		}
		batch.Scatter()
		done = end
		var survivors []int
		for _, i := range group {
			if counts[i] > done {
				survivors = append(survivors, i)
			}
		}
		group = survivors
		md = md[:len(group)]
	}
	if len(group) == 0 {
		return nil
	}
	i := group[0]
	ln := lanes[i]
	n, err := c.run(ctx, ln.M, ln.BaseShot, done, counts[i], ln.OnShot)
	stats[i].Replayed += n
	return err
}

// laneFullShots runs shots [from, to) of a lane through the full
// pipeline: ctx gate before every shot, recorder MD reset, OnShot
// delivery, and error decoration with the lane's global shot index.
func laneFullShots(ctx context.Context, p *isa.Program, rec *recorder, ln BatchLane, from, to int) error {
	for shot := from; shot < to; shot++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("replay: preempted before shot %d: %w", ln.BaseShot+shot, err)
		}
		rec.md, rec.ops = rec.md[:0], 0
		if err := ln.M.RunProgram(p); err != nil {
			return fmt.Errorf("replay: shot %d: %w", ln.BaseShot+shot, err)
		}
		if ln.OnShot != nil {
			ln.OnShot(ln.BaseShot+shot, rec.md)
		}
	}
	return nil
}

// clearProbes detaches the lead-phase recorders (error paths included:
// machines go back to the pool or are discarded, never with a live
// probe).
func clearProbes(lanes []BatchLane) {
	for _, ln := range lanes {
		ln.M.SetProbe(nil)
	}
}
