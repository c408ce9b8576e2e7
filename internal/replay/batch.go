// batch.go — the engine's one record/detect/replay protocol. RunBatch
// runs several shot shards ("lanes") in one invocation; Run is RunBatch
// over a single lane. With two or more trajectory lanes, the replayed
// shots run in lockstep on a shared compiled schedule via
// qphys.TrajBatch.
//
// Lead and detection shots stay per lane on the scalar machines — they
// feed each lane's PRNG stream (cold-start transient, recording,
// comparison) and let every lane validate replay safety against its own
// controller and caches. Only the steady-state replayed shots run
// batched, and only when every lane independently detected safety,
// every lane's recorded schedule is value-identical to lane 0's (lanes
// are distinct machines, so pointer identity cannot hold across them —
// but identical configs produce value-identical schedules, and the
// compiled tables derive from matrix values), and every lane's backend
// is the trajectory state. Any lane failing any gate demotes the whole
// group to per-lane scalar completion, which is bit-identical anyway —
// batching is only ever a throughput fast path, never a semantic one.
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
	OnShot   func(shot int, md []MD)
}

// RunBatch executes the program Shots times on every lane, preserving
// each lane's bit-exact equivalence to a standalone Run(lane.M, p,
// Options{Shots, Mode, OnShot, BaseShot}) — same PRNG consumption, same
// state evolution, same OnShot streams, same Stats. The returned slice
// holds one Stats per lane, index-aligned with lanes.
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
	for i := range stats {
		stats[i].Shots = shots
	}
	if shots <= 0 {
		return stats, fmt.Errorf("replay: Shots must be positive, got %d", shots)
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
			if err := laneFullShots(ctx, p, recs[i], ln, 0, shots); err != nil {
				return stats, err
			}
			stats[i].Reason = "replay disabled"
		}
		return stats, nil
	}

	lead := min(shots, detectShots)
	scheds := make([][]op, len(lanes))
	reasons := make([]string, len(lanes))
	for i, ln := range lanes {
		rec := recs[i]
		var s1, s2 []op
		for shot := 0; shot < lead; shot++ {
			// Shots 1 and 2 are recorded into fresh schedules (s1 is
			// kept for the comparison, s2 may be memoized), each sized
			// from the previous shot's operation count.
			if shot == 1 || shot == 2 {
				rec.recording, rec.sched = true, make([]op, 0, rec.ops)
			} else {
				rec.recording = false
			}
			if err := laneFullShots(ctx, p, rec, ln, shot, shot+1); err != nil {
				return stats, err
			}
			switch shot {
			case 1:
				s1 = rec.sched
			case 2:
				s2 = rec.sched
			}
		}
		rec.recording = false
		scheds[i] = s2
		if reason := ln.M.Controller.ReplayUnsafeReason(); reason != "" {
			reasons[i] = reason
		} else if !schedulesEqual(s1, s2) {
			reasons[i] = "schedule is not shot-invariant"
		}
	}
	if shots <= detectShots {
		for i := range stats {
			stats[i].Reason = "too few shots to amortize recording"
		}
		return stats, nil
	}

	batchable := len(lanes) > 1
	trajs := make([]*qphys.Trajectory, 0, len(lanes))
	for i, ln := range lanes {
		t, ok := ln.M.State.(*qphys.Trajectory)
		if !batchable || !ok || reasons[i] != "" || !schedulesEqualValue(scheds[0], scheds[i]) {
			batchable = false
			break
		}
		trajs = append(trajs, t)
	}

	if !batchable {
		// Per-lane scalar completion: unsafe lanes stay on the full
		// pipeline; safe lanes replay their own compiled schedule.
		for i, ln := range lanes {
			st := &stats[i]
			if reasons[i] != "" {
				st.Reason = reasons[i]
				if err := laneFullShots(ctx, p, recs[i], ln, lead, shots); err != nil {
					return stats, err
				}
				continue
			}
			st.Safe, st.Compiled, st.Lead = true, true, lead
			ln.M.SetProbe(nil)
			comp := memoizedCompile(ln.M, p, scheds[i])
			if st.Replayed, err = comp.run(ctx, ln.M, ln.BaseShot, lead, shots, ln.OnShot); err != nil {
				return stats, err
			}
		}
		return stats, nil
	}

	// Batched steady state: one compiled schedule (lane 0's memo slot —
	// validated value-identical across lanes above), one lockstep SoA
	// executor, per-lane measurement chains and result delivery.
	clearProbes(lanes)
	comp := memoizedCompile(lanes[0].M, p, scheds[0])
	for i := range stats {
		stats[i].Safe = true
		stats[i].Compiled = true
		stats[i].Lead = lead
	}
	batch := qphys.NewTrajBatch(trajs)
	md := make([][]MD, len(lanes))
	for i := range md {
		md[i] = make([]MD, 0, comp.nMD)
	}
	measure := func(lane, q, outcome int) {
		md[lane] = append(md[lane], MD{Qubit: q, Result: lanes[lane].M.FinishMeasure(outcome)})
	}
	for shot := lead; shot < shots; shot++ {
		if (shot-lead)%ctxCheckShots == 0 {
			if err := ctx.Err(); err != nil {
				batch.Scatter()
				return stats, fmt.Errorf("replay: preempted at shot %d: %w", lanes[0].BaseShot+shot, err)
			}
		}
		for i := range md {
			md[i] = md[i][:0]
		}
		batch.RunScheduleBatch(comp.ops, measure)
		for i, ln := range lanes {
			ln.M.PulsesPlayed += comp.pulses
			stats[i].Replayed++
			if ln.OnShot != nil {
				ln.OnShot(ln.BaseShot+shot, md[i])
			}
		}
	}
	batch.Scatter()
	return stats, nil
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

// memoizedCompile resolves the compiled form of a freshly recorded
// schedule through the machine-resident memo, keyed by program identity:
// a machine pooled for the lifetime of a sweep (or of the batch service,
// whose service-lifetime assembly cache keeps program pointers stable)
// compiles each distinct program once, however many programs interleave
// on it. Every hit is validated entry-for-entry against the fresh
// recording (whose matrices alias stable machine-cache entries), so a
// stale entry — e.g. after core invalidated the cache on
// UploadPulse/SetQubitParams — can only miss, never corrupt. A miss
// compiles and (bounded) stores.
func memoizedCompile(m *core.Machine, p *isa.Program, sched []op) *compiled {
	cache, _ := m.ReplayCache.(map[*isa.Program]*compileCache)
	if cache == nil {
		cache = make(map[*isa.Program]*compileCache)
		m.ReplayCache = cache
	}
	if e := cache[p]; e != nil && schedulesEqual(e.sched, sched) {
		return e.c
	}
	comp := compileSchedule(sched)
	if len(cache) >= maxCompiledPrograms {
		cache = make(map[*isa.Program]*compileCache)
		m.ReplayCache = cache
	}
	cache[p] = &compileCache{sched: sched, c: comp}
	return comp
}

// matrixEqualValue compares two matrices entry by entry — the cross-
// machine analogue of sameMatrix, which relies on cache-pointer
// identity that cannot hold between distinct machines.
func matrixEqualValue(a, b qphys.Matrix) bool {
	if a.N != b.N || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// krausEqualValue compares two Kraus sets operator by operator.
func krausEqualValue(a, b []qphys.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !matrixEqualValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// schedulesEqualValue compares two recorded schedules by value. Lanes of
// a batch are separate machines whose schedules alias separate caches;
// identical configurations record value-identical schedules, and the
// compiled form derives from matrix values alone, so value equality is
// exactly the condition under which one compiled schedule serves every
// lane bit-identically.
func schedulesEqualValue(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.kind != y.kind || x.q != y.q || x.qb != y.qb {
			return false
		}
		if !matrixEqualValue(x.u, y.u) || !krausEqualValue(x.kraus, y.kraus) {
			return false
		}
	}
	return true
}
