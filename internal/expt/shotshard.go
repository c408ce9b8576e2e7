package expt

// shotshard.go is the shot-sharding layer of the sweep engine:
// parallelism *inside* one sweep point. A large shot range is split by a
// fixed shard plan — a pure function of the shot count, never of the
// worker count, exactly like chunkRounds one level up — and every shard
// runs on its own pooled machine, seeded with DeriveSeed(pointSeed,
// shardIndex), as one lane of a replay.RunBatch invocation (lead/detect
// shots, replayed from the memo on a warm machine, plus its slice of the
// replay loop). Results merge in shard
// order, so the outcome is bit-identical for any Engine.ShotWorkers
// value given the same plan. The contract, extending the sweep
// determinism contract:
//
//   - The shard plan depends only on the total shot count (auto
//     experiments: ShotShardPlan) or on the experiment's own fixed
//     chunking (repcode/phasecode: chunkRounds(rounds, 50), which this
//     layer inherited unchanged — those seeds and chunk sizes predate
//     sharding and stay bit-identical to every earlier release).
//   - Shard k's machine runs in the ResetState(DeriveSeed(pointSeed, k))
//     condition. This is a different PRNG stream layout than the single
//     stream a pre-sharding engine consumed, so crossing the auto-shard
//     threshold changes sampled results (never their statistics — the
//     conformance suite pins sharded vs unsharded agreement at 5σ).
//     Below the threshold the legacy single stream is kept bit-for-bit.
//   - Per-shot callbacks run live inside each shard's engine loop, with
//     the shard index and the global shot index (the engine numbers each
//     shard's shots from its global offset via replay.BatchLane.BaseShot),
//     under finishShard's rule: shards may run concurrently, so a
//     callback writes only shard-indexed slots, and the caller merges
//     them in shard order after the job. Order-sensitive consumers (the
//     RunProgram stream hash) fold their slots in shard order; the runner
//     keeps no measurement stream.
//   - Cancellation and failure: the first failing shard cancels its
//     siblings' context (they abort within the engine's bounded-
//     staleness window); a shard panic is recovered into *PanicError at
//     the group boundary (its machines are discarded, not pooled — the
//     group runner's unwind rule). The job's error is the outer ctx error
//     if the caller was preempted, else the lowest-index non-ctx shard
//     error — so a panic is never masked by the sibling aborts it
//     caused, and the service taxonomy (internal vs canceled) is stable
//     under sharding.
//   - Lane batching: consecutive shards may run as one lockstep batch
//     through replay.RunBatch — one compiled schedule, per-lane
//     machines/seeds/PRNG streams (lane k IS shard k: same
//     DeriveSeed(pointSeed, k), same BaseShot, same shot count, same
//     callback shard index). Lanes of unequal size run in lockstep as
//     far as the shortest; the survivors go on. Engine.BatchLanes sets
//     the grouping (ShardLaneGroups). Because the plan, the seeds, and
//     the merge order are untouched, changing the lane grouping can
//     never change result bytes — batching is a throughput knob with
//     the same neutrality contract as ShotWorkers. A panic inside a
//     batch discards every machine of the group (the unwind passes all
//     the puts) and cancels sibling groups; a group error is attributed
//     to its first shard index for the lowest-index selection rule.

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/replay"
)

// ShotShardSize is the fixed shard size of the automatic shot-shard
// plan. A shard on a cold machine pays the engine's lead/detect shots
// (three full-pipeline executions) before replaying its remainder, so
// the size balances that per-shard overhead against shard-count
// parallelism and against test affordability (exceeding the threshold
// must not require huge shot counts). For the d=3 repcode shot the
// overhead is ~8% at 256: a ~116 µs lead against ~5.5 µs per compiled
// shot (median of three qumabench traced runs, replay.lead_us and
// replay.compiled_shot_ns, on a 2-vCPU Xeon VM). A pooled machine that
// has already proven the program replays its lead from the memo, so
// that overhead is paid only on a cold machine.
const ShotShardSize = 256

// ShotShardPlan returns the automatic shard plan for a shot count: nil
// when shots ≤ ShotShardSize — the job then runs as a single legacy
// stream, machine seeded with the point seed itself, bit-identical to
// the pre-sharding engine — and fixed ShotShardSize chunks above it.
// The plan is a pure function of shots: results are bit-identical for
// any ShotWorkers value because the plan, the per-shard seeds, and the
// shard merge order never depend on scheduling.
func ShotShardPlan(shots int) []int {
	if shots <= ShotShardSize {
		return nil
	}
	return chunkRounds(shots, ShotShardSize)
}

// shardCount returns the number of shards of a plan (1 for nil: the
// legacy single stream).
func shardCount(plan []int) int {
	if plan == nil {
		return 1
	}
	return len(plan)
}

// ShotShardCount returns the number of shards RunShots runs for a shot
// count: the length of ShotShardPlan(shots), or 1 at or below
// ShotShardSize.
func ShotShardCount(shots int) int {
	return shardCount(ShotShardPlan(shots))
}

// LaneGroups partitions the shards of a plan into lockstep batch
// groups: consecutive runs of at most lanes shards each. Each group is a
// [start, end) shard-index range. lanes <= 1 yields singleton groups
// (the scalar per-shard path). Members may differ in size (a plan's
// last shard is usually short); replay.RunBatch runs them in lockstep
// as far as the shortest goes. Grouping is a pure function of (plan,
// lanes) — but results do not depend on it at all: every lane of a
// batch is bit-identical to its scalar shard, so any grouping produces
// the same bytes. A lanes value above the shard count means one group
// of every shard; it is clamped before any arithmetic, so no value
// overflows.
func LaneGroups(plan []int, lanes int) [][2]int {
	lanes = min(max(lanes, 1), max(len(plan), 1))
	groups := make([][2]int, 0, (len(plan)+lanes-1)/lanes)
	for k := 0; k < len(plan); k += lanes {
		groups = append(groups, [2]int{k, min(k+lanes, len(plan))})
	}
	return groups
}

// maxAutoLanes caps the automatic lane count.
const maxAutoLanes = 8

// autoLaneFloor is the smallest lane count at which the lockstep
// executor beats the scalar one on an nq-qubit trajectory register, per
// BenchmarkReplayLanes (median ns per shot over eight interleaved runs
// on a 2-vCPU Xeon VM, lanes 1 / 2 / 4 / 8: nq=1 2083 / 1549 / 1460 /
// 1252, nq=2 13505 / 17647 / 12938 / 9804, nq=3 21026 / 24715 / 16507 /
// 12594, nq=4 40707 / 26297 / 19088 / 17095; three runs: nq=5 77058 /
// 41040 / 29781 / 24261, nq=9 1358639 / 765897 / 480312 / 315661). Two
// lanes lose at two and three qubits, where the span passes are too
// short to pay their setup and the one-qubit lane kernel does not
// apply.
func autoLaneFloor(nq int) int {
	if nq == 2 || nq == 3 {
		return 4
	}
	return 2
}

// ShardLaneGroups is the lane grouping of a sharded shot job, shared by
// every caller that runs shot shards (the sweep engine and quma-run).
// eng.BatchLanes >= 1 caps the group size explicitly (1: scalar shards).
// eng.BatchLanes == 0 is automatic: on the trajectory backend, groups of
// ⌈shards ÷ g⌉ lanes with g = max(shotWorkers, ⌈shards ÷ 8⌉) — that is
// ⌈shards ÷ shotWorkers⌉ lanes while that is at most 8 — so a worker
// that would run several shards back to back runs them in lockstep
// instead; groups smaller than autoLaneFloor stay scalar. shotWorkers is
// eng.ShotWorkers, or one per CPU when that is 0, clamped to the shard
// count (more workers than shards idle, and the clamp keeps the sums
// below from overflowing). ModeOff has no batched executor and always
// gets singletons. Like every grouping, the choice never changes a
// result byte.
func ShardLaneGroups(plan []int, eng Engine, cfg core.Config) [][2]int {
	lanes := eng.BatchLanes
	switch {
	case eng.Replay == replay.ModeOff:
		lanes = 1
	case lanes == 0 && cfg.Backend == core.BackendTrajectory:
		shotWorkers := eng.ShotWorkers
		if shotWorkers <= 0 {
			shotWorkers = runtime.GOMAXPROCS(0)
		}
		shotWorkers = min(shotWorkers, max(len(plan), 1))
		groups := max(shotWorkers, (len(plan)+maxAutoLanes-1)/maxAutoLanes)
		lanes = (len(plan) + groups - 1) / groups
		if lanes < autoLaneFloor(cfg.NumQubits) {
			lanes = 1
		}
	}
	return LaneGroups(plan, lanes)
}

// RunShots runs prog shots times on machines built from cfg, through
// the same shot-shard runner as every experiment: the automatic plan
// ShotShardPlan(shots) with shard k seeded DeriveSeed(cfg.Seed, k) (at
// or below ShotShardSize, one shard seeded cfg.Seed itself), up to
// eng.ShotWorkers lane groups (ShardLaneGroups) in flight, panic
// isolation, sibling cancellation and the runner's error rule.
// eng.Workers is unused: a shot job is one sweep point.
// finishShard runs once per shard (ShotShardCount(shots) in all),
// possibly concurrently, with that shard's machine; the runner pools
// machines and reuses them for later shards, so finishShard must copy
// what it keeps and write only shard-indexed slots. The returned stats
// are the shard-order merge.
func RunShots(ctx context.Context, cfg core.Config, prog *isa.Program, shots int, eng Engine,
	finishShard func(shard int, m *core.Machine, stats replay.Stats) error) (replay.Stats, error) {
	return runShotJobSharded(ctx, newMachinePool(cfg), cfg.Seed, prog, shots, ShotShardPlan(shots), eng, nil, nil, finishShard)
}

// runShotJobSharded executes one sweep point with its shot range split
// across the shard plan: shard k runs plan[k] shots on its own pooled
// machine seeded DeriveSeed(pointSeed, k), and the per-shot streams,
// engine stats, and finishShard extractions merge in shard order. A nil
// plan is the legacy unsharded stream: one shard of all the shots on a
// machine seeded pointSeed, bit-identical to the pre-sharding engine.
//
// Every shard runs through one group runner. The shards are partitioned
// into lockstep groups (ShardLaneGroups of eng: BatchLanes 0 = auto,
// 1 = scalar; ModeOff and single shards always get singletons), and each
// group is one replay.RunBatch call in mode eng.Replay — per-lane
// machines, seeds, shot counts and streams, exactly a scalar shard's
// wiring — with up to eng.ShotWorkers groups in flight (0 = one per
// CPU). eng.Workers is the caller's sweep-level setting and unused here.
// Result bytes are identical for every BatchLanes value by the per-lane
// bit-identity contract.
//
// setup runs on every shard's machine (the pooled-machine rule for
// machine customization). onShot, when non-nil, runs live inside each
// shard's engine loop after every shot, with the shard index and the
// global shot index, followed by the fault-injection Shot hook (so
// injected panics and slowness land mid-shard). finishShard runs per
// shard, with that shard's machine still in hand, as its group
// completes. Both may run concurrently for different shards (lockstep
// lanes also interleave their shots), so callers write only
// shard-indexed slots from them and merge those in shard order after
// the job. The returned stats are the shard-order merge
// (replay.Stats.Merge).
func runShotJobSharded(ctx context.Context, mp *machinePool, pointSeed int64, prog *isa.Program, shots int, plan []int, eng Engine,
	setup func(*core.Machine) error,
	onShot func(shard, shot int, md []replay.MD),
	finishShard func(shard int, m *core.Machine, stats replay.Stats) error) (replay.Stats, error) {
	var merged replay.Stats
	seed := func(k int) int64 { return DeriveSeed(pointSeed, k) }
	if plan == nil {
		plan = []int{shots}
		seed = func(int) int64 { return pointSeed }
	}
	if total := sum(plan); total != shots {
		return merged, fmt.Errorf("expt: shard plan covers %d shots, job has %d", total, shots)
	}
	starts := make([]int, len(plan))
	for k := 1; k < len(plan); k++ {
		starts[k] = starts[k-1] + plan[k-1]
	}
	var hook func(int)
	if mp.faults != nil {
		hook = mp.faults.Shot
	}
	// laneCallback is shard k's engine callback: the caller's onShot,
	// then the fault hook; nil when there is neither.
	laneCallback := func(k int) func(int, []replay.MD) {
		if onShot == nil && hook == nil {
			return nil
		}
		return func(shot int, md []replay.MD) {
			if onShot != nil {
				onShot(k, shot, md)
			}
			if hook != nil {
				hook(shot)
			}
		}
	}
	// The first failing shard cancels its siblings: they abort at the
	// engine's next bounded-staleness check instead of finishing work
	// whose job already failed.
	sctx, cancelShards := context.WithCancel(ctx)
	defer cancelShards()
	statsv := make([]replay.Stats, len(plan))
	// runGroup runs shards [g0, g1) as one replay.RunBatch call: lane j
	// is shard g0+j, with its seed, global BaseShot and live callback,
	// and finishShard sees each lane's machine before the machines
	// return to the pool. The returns are deliberately not
	// deferred (the group runner's unwind rule): a panic anywhere in the
	// group — engine, callbacks, injected fault — unwinds past them, so
	// every machine of the group, in an unknowable post-panic state, is
	// discarded rather than pooled. Every non-panic exit returns the
	// machines, a canceled run included, because ResetState restores a
	// preempted machine to a state bit-identical to fresh construction
	// (the cancellation tests reuse a pool across a cancel and assert
	// bit-identity).
	runGroup := func(g0, g1 int) error {
		var err error
		lanes := make([]replay.BatchLane, 0, g1-g0)
		for k := g0; k < g1; k++ {
			var m *core.Machine
			if m, err = mp.get(seed(k)); err != nil {
				break
			}
			lanes = append(lanes, replay.BatchLane{M: m, BaseShot: starts[k], Shots: plan[k], OnShot: laneCallback(k)})
			if setup != nil {
				if err = setup(m); err != nil {
					break
				}
			}
		}
		if err == nil {
			var sts []replay.Stats
			sts, err = replay.RunBatch(sctx, prog, lanes, 0, eng.Replay)
			copy(statsv[g0:g1], sts)
			for j := 0; err == nil && finishShard != nil && j < len(lanes); j++ {
				err = finishShard(g0+j, lanes[j].M, sts[j])
			}
		}
		for _, ln := range lanes {
			mp.put(ln.M)
		}
		return err
	}
	groups := ShardLaneGroups(plan, eng, mp.cfg)
	errs := make([]error, len(plan))
	poolErr := runPool(sctx, len(groups), eng.ShotWorkers, func(gi int) error {
		g0, g1 := groups[gi][0], groups[gi][1]
		// Recover panics here, not only in runPool, so the recovery
		// reaches cancelShards: a panicking shard must abort its
		// siblings exactly like an erroring one. A group error is
		// attributed to its first shard for the selection rule below.
		err := recoverJob(func(int) error { return runGroup(g0, g1) }, gi)
		if err != nil {
			errs[g0] = err
			cancelShards()
		}
		return err
	})
	// Error selection: the caller's own preemption wins (taxonomy:
	// canceled/deadline), then the lowest-index shard error that is NOT
	// itself a ctx abort — sibling shards canceled by a panicking or
	// failing shard must not mask the root cause — then any error.
	if err := ctx.Err(); err != nil {
		return merged, fmt.Errorf("expt: shot job preempted: %w", err)
	}
	var firstErr error
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		for _, e := range errs {
			if e != nil {
				firstErr = e
				break
			}
		}
	}
	if firstErr == nil {
		firstErr = poolErr
	}
	if firstErr != nil {
		return merged, firstErr
	}
	for k := range statsv {
		merged.Merge(statsv[k])
	}
	return merged, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
