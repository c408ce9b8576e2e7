package expt

// shotshard.go is the shot-sharding layer of the sweep engine:
// parallelism *inside* one sweep point. A large shot range is split by a
// fixed shard plan — a pure function of the shot count, never of the
// worker count, exactly like chunkRounds one level up — and every shard
// runs on its own pooled machine, seeded with DeriveSeed(pointSeed,
// shardIndex), through its own replay.Run invocation (lead/detect shots
// plus its slice of the replay loop). Results merge in shard order, so
// the outcome is bit-identical for any ShotWorkers value given the same
// plan. The contract, extending the sweep determinism contract:
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
//   - Per-shot callbacks are buffered per shard and delivered after the
//     last shard completes, in shard order, with global shot indices
//     (the engine numbers each shard's shots from its global offset via
//     replay.Options.BaseShot) — so order-sensitive consumers (the
//     RunProgram stream hash) observe one deterministic merged stream.
//   - Cancellation and failure: the first failing shard cancels its
//     siblings' context (they abort within the engine's bounded-
//     staleness window); a shard panic is recovered into *PanicError at
//     the shard boundary (its machine is discarded, not pooled — the
//     runShotJob unwind rule). The job's error is the outer ctx error
//     if the caller was preempted, else the lowest-index non-ctx shard
//     error — so a panic is never masked by the sibling aborts it
//     caused, and the service taxonomy (internal vs canceled) is stable
//     under sharding.
//   - Lane batching: consecutive shards may run as one lockstep batch
//     through replay.RunBatch — one compiled schedule, per-lane
//     machines/seeds/PRNG streams (lane k IS shard k: same
//     DeriveSeed(pointSeed, k), same BaseShot, same shot count, same
//     buffered stream slot). Lanes of unequal size run in lockstep as
//     far as the shortest; the survivors go on. BatchLanes caps a
//     group; the default 0 groups the shards a shot worker would run
//     back to back, where the lockstep executor is measured faster
//     (ShardLaneGroups), and 1 runs every shard scalar. Because the
//     plan, the seeds, and the merge order are untouched, changing the
//     lane grouping can never change result bytes — batching is a
//     throughput knob with the same neutrality contract as
//     ShotWorkers. A panic inside a batch discards every machine of the
//     group (the unwind passes all the puts) and cancels sibling
//     groups; a group error is attributed to its first shard index for
//     the lowest-index selection rule.

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
// plan. Each shard pays the engine's lead/detect shots (three
// full-pipeline executions) before replaying its remainder, so the size
// balances that per-shard overhead against shard-count parallelism and
// against test affordability (exceeding the threshold must not require
// huge shot counts). For the d=3 repcode shot the overhead is ~4% at 256:
// a ~72 µs lead against ~6.6 µs per compiled shot (qumabench traced run,
// replay.lead_us and replay.compiled_shot_ns, on a 2-vCPU Xeon VM).
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

// shardShots returns the shot count of shard k of a plan, treating a
// nil plan as one shard holding the whole range.
func shardShots(plan []int, k, total int) int {
	if plan == nil {
		return total
	}
	return plan[k]
}

// shardCount returns the number of shards of a plan (1 for nil: the
// legacy single stream).
func shardCount(plan []int) int {
	if plan == nil {
		return 1
	}
	return len(plan)
}

// shardStream buffers one shard's per-shot measurement streams: the
// flattened MD records plus per-shot lengths, appended live by the
// shard's engine callback and replayed to the caller's OnShot after all
// shards complete.
type shardStream struct {
	md   []replay.MD
	lens []int
}

// LaneGroups partitions the shards of a plan into lockstep batch
// groups: consecutive runs of at most lanes shards each. Each group is a
// [start, end) shard-index range. lanes <= 1 yields singleton groups
// (the scalar per-shard path). Members may differ in size (a plan's
// last shard is usually short); replay.RunBatch runs them in lockstep
// as far as the shortest goes. Grouping is a pure function of (plan,
// lanes) — but results do not depend on it at all: every lane of a
// batch is bit-identical to its scalar shard, so any grouping produces
// the same bytes.
func LaneGroups(plan []int, lanes int) [][2]int {
	lanes = max(lanes, 1)
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
// batchLanes >= 1 caps the group size explicitly (1: scalar shards).
// batchLanes == 0 is automatic: on the trajectory backend, groups of
// ⌈shards ÷ g⌉ lanes with g = max(shotWorkers, ⌈shards ÷ 8⌉) — that is
// ⌈shards ÷ shotWorkers⌉ lanes while that is at most 8 — so a worker
// that would run several shards back to back runs them in lockstep
// instead; groups smaller than autoLaneFloor stay scalar. shotWorkers
// <= 0 means one per CPU. ModeOff has no batched executor and always
// gets singletons. Like every grouping, the choice never changes a
// result byte.
func ShardLaneGroups(plan []int, batchLanes, shotWorkers int, cfg core.Config, mode replay.Mode) [][2]int {
	lanes := batchLanes
	switch {
	case mode == replay.ModeOff:
		lanes = 1
	case lanes == 0 && cfg.Backend == core.BackendTrajectory:
		if shotWorkers <= 0 {
			shotWorkers = runtime.GOMAXPROCS(0)
		}
		groups := max(shotWorkers, (len(plan)+maxAutoLanes-1)/maxAutoLanes)
		lanes = (len(plan) + groups - 1) / groups
		if lanes < autoLaneFloor(cfg.NumQubits) {
			lanes = 1
		}
	}
	return LaneGroups(plan, lanes)
}

// runShotJobSharded executes one sweep point with its shot range split
// across the shard plan: shard k runs plan[k] shots on its own pooled
// machine seeded DeriveSeed(pointSeed, k), up to shotWorkers shards
// concurrently (0 = one per CPU), and the per-shot streams, engine
// stats, and finishShard extractions merge in shard order. A nil plan
// is the legacy unsharded path: one machine seeded pointSeed, live
// callback delivery, bit-identical to the pre-sharding engine.
//
// Shards run in lockstep batch groups (ShardLaneGroups of batchLanes:
// 0 = auto, 1 = scalar): each group runs as one replay.RunBatch
// invocation — per-lane machines, seeds, shot counts, and streams
// unchanged — with up to shotWorkers groups in flight instead of
// shards. ModeOff has no batched executor and ignores the knob. Result
// bytes are identical for every batchLanes value by the per-lane
// bit-identity contract.
//
// setup runs on every shard's machine (the pooled-machine rule for
// machine customization). onShot, when non-nil, receives every shot in
// global order after the run completes; the fault-injection Shot hook,
// by contrast, fires live inside each shard's loop (runShotJob wraps
// the per-shard callback), so injected panics and slowness land
// mid-shard. finishShard runs per shard, with that shard's machine
// still in hand, as the shard completes — callers must write only
// shard-indexed slots from it. The returned stats are the shard-order
// merge (replay.Stats.Merge).
func runShotJobSharded(ctx context.Context, mp *machinePool, pointSeed int64, prog *isa.Program, shots int, plan []int, shotWorkers, batchLanes int, mode replay.Mode,
	setup func(*core.Machine) error,
	onShot func(int, []replay.MD),
	finishShard func(shard int, m *core.Machine, stats replay.Stats) error) (replay.Stats, error) {
	var merged replay.Stats
	if plan == nil || len(plan) == 1 {
		// Single stream: nil plan keeps the legacy seed (pointSeed);
		// a one-shard plan uses the sharded seed rule. Either way the
		// callback is live — order is already global.
		seed := pointSeed
		if plan != nil {
			seed = DeriveSeed(pointSeed, 0)
		}
		err := runShotJob(ctx, mp, seed, prog, shots, 0, mode, setup, onShot,
			func(m *core.Machine, st replay.Stats) error {
				merged = st
				if finishShard != nil {
					return finishShard(0, m, st)
				}
				return nil
			})
		return merged, err
	}
	if total := sum(plan); total != shots {
		return merged, fmt.Errorf("expt: shard plan covers %d shots, job has %d", total, shots)
	}
	starts := make([]int, len(plan))
	for k := 1; k < len(plan); k++ {
		starts[k] = starts[k-1] + plan[k-1]
	}
	// The first failing shard cancels its siblings: they abort at the
	// engine's next bounded-staleness check instead of finishing work
	// whose job already failed.
	sctx, cancelShards := context.WithCancel(ctx)
	defer cancelShards()
	groups := ShardLaneGroups(plan, batchLanes, shotWorkers, mp.cfg, mode)
	bufs := make([]shardStream, len(plan))
	statsv := make([]replay.Stats, len(plan))
	errs := make([]error, len(plan))
	runShard := func(k int) error {
		var s shardStream
		var cb func(int, []replay.MD)
		if onShot != nil {
			s.lens = make([]int, 0, plan[k])
			cb = func(_ int, md []replay.MD) {
				s.md = append(s.md, md...)
				s.lens = append(s.lens, len(md))
			}
		}
		err := runShotJob(sctx, mp, DeriveSeed(pointSeed, k), prog, plan[k], starts[k], mode, setup, cb,
			func(m *core.Machine, st replay.Stats) error {
				statsv[k] = st
				if finishShard != nil {
					return finishShard(k, m, st)
				}
				return nil
			})
		if err == nil {
			bufs[k] = s
		}
		return err
	}
	// runBatchGroup runs shards [g0, g1) as one lockstep batch: lane j is
	// shard g0+j, with its sharded seed, global BaseShot, buffered stream
	// slot, and live fault hook — exactly the scalar shard's wiring. The
	// machine returns are deliberately not deferred (the runShotJob
	// unwind rule): a panic anywhere in the batch discards every machine
	// of the group.
	runBatchGroup := func(g0, g1 int) error {
		n := g1 - g0
		ms := make([]*core.Machine, 0, n)
		bl := make([]replay.BatchLane, 0, n)
		ss := make([]shardStream, n)
		for k := g0; k < g1; k++ {
			m, err := mp.get(DeriveSeed(pointSeed, k))
			if err != nil {
				for _, pm := range ms {
					mp.put(pm)
				}
				return err
			}
			ms = append(ms, m)
			if setup != nil {
				if err := setup(m); err != nil {
					for _, pm := range ms {
						mp.put(pm)
					}
					return err
				}
			}
			var cb func(int, []replay.MD)
			if onShot != nil {
				s := &ss[k-g0]
				s.lens = make([]int, 0, plan[k])
				cb = func(_ int, md []replay.MD) {
					s.md = append(s.md, md...)
					s.lens = append(s.lens, len(md))
				}
			}
			if h := mp.faults; h != nil && h.Shot != nil {
				inner := cb
				cb = func(shot int, md []replay.MD) {
					if inner != nil {
						inner(shot, md)
					}
					h.Shot(shot)
				}
			}
			bl = append(bl, replay.BatchLane{M: m, BaseShot: starts[k], Shots: plan[k], OnShot: cb})
		}
		sts, err := replay.RunBatch(sctx, prog, bl, 0, mode)
		if err == nil {
			for j := 0; j < n; j++ {
				statsv[g0+j] = sts[j]
				if finishShard != nil {
					if err = finishShard(g0+j, ms[j], sts[j]); err != nil {
						break
					}
				}
			}
		}
		for _, m := range ms {
			mp.put(m)
		}
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			bufs[g0+j] = ss[j]
		}
		return nil
	}
	poolErr := runPool(sctx, len(groups), shotWorkers, func(gi int) error {
		g0, g1 := groups[gi][0], groups[gi][1]
		// Recover panics here, not only in runPool, so the recovery
		// reaches cancelShards: a panicking shard must abort its
		// siblings exactly like an erroring one. The machine discard
		// happens regardless — the panic unwinds past the puts.
		err := recoverJob(func(int) error {
			if g1-g0 == 1 {
				return runShard(g0)
			}
			return runBatchGroup(g0, g1)
		}, gi)
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
		return merged, fmt.Errorf("expt: sharded shot job preempted: %w", err)
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
	// Deliver the buffered streams in shard order with global indices:
	// one deterministic merged stream, independent of shard scheduling.
	if onShot != nil {
		for k := range bufs {
			off := 0
			for i, n := range bufs[k].lens {
				onShot(starts[k]+i, bufs[k].md[off:off+n:off+n])
				off += n
			}
		}
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
