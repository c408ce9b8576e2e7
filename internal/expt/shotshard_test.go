package expt

// Shot-sharding determinism: the shard plan is a pure function of the
// shot count, so every ShotWorkers value — and the legacy chunk fan-out
// the repcode experiments migrated from — must produce bit-identical
// results. CI runs this file under -race.

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"quma/internal/core"
	"quma/internal/qphys"
	"quma/internal/replay"
)

func TestShotShardPlanFixedness(t *testing.T) {
	for _, shots := range []int{1, 100, ShotShardSize} {
		if plan := ShotShardPlan(shots); plan != nil {
			t.Errorf("ShotShardPlan(%d) = %v, want nil (legacy single stream)", shots, plan)
		}
	}
	for _, shots := range []int{ShotShardSize + 1, 552, 600, 100_000} {
		plan := ShotShardPlan(shots)
		if plan == nil {
			t.Fatalf("ShotShardPlan(%d) = nil, want shards", shots)
		}
		total := 0
		for k, n := range plan {
			if n <= 0 || n > ShotShardSize {
				t.Errorf("ShotShardPlan(%d)[%d] = %d, want 1..%d", shots, k, n, ShotShardSize)
			}
			total += n
		}
		if total != shots {
			t.Errorf("ShotShardPlan(%d) sums to %d", shots, total)
		}
		if again := ShotShardPlan(shots); !reflect.DeepEqual(plan, again) {
			t.Errorf("ShotShardPlan(%d) not stable: %v vs %v", shots, plan, again)
		}
	}
}

// shardWorkerCounts is the ShotWorkers axis the determinism tests sweep:
// serial, small, oversubscribed, and the auto default.
func shardWorkerCounts() []int {
	return []int{1, 2, 8, runtime.NumCPU()}
}

// TestSweepBitIdenticalAcrossShotWorkers runs a T1 sweep whose Rounds
// exceed ShotShardSize (600 → 3 shards per point) at every ShotWorkers
// value and demands bit-identical results — the tentpole contract.
func TestSweepBitIdenticalAcrossShotWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultSweepParams()
	p.Rounds = 600
	p.DelaysCycles = []int{0, 800, 1600, 2400}
	var baseline *T1Result
	for _, sw := range shardWorkerCounts() {
		p.ShotWorkers = sw
		res, err := NewEnv().RunT1(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("ShotWorkers=%d: %v", sw, err)
		}
		res.Params.ShotWorkers = 0
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(res, baseline) {
			t.Fatalf("ShotWorkers=%d result differs from ShotWorkers=%d", sw, shardWorkerCounts()[0])
		}
	}
}

// TestRunProgramStreamIdenticalAcrossShotWorkers pins the buffered
// shard-order stream merge: the FNV stream hash — sensitive to every
// (shot, index, qubit, result) in order — must match across ShotWorkers
// and replay modes for a sharded shot count (552 → 3 shards).
func TestRunProgramStreamIdenticalAcrossShotWorkers(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.NumQubits = 2
	src := "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nMPG {q1}, 300\nMD {q1}, r8\nhalt\n"
	env := NewEnv()
	var ref *ProgramResult
	for _, mode := range []replay.Mode{replay.ModeOff, replay.ModeCompiled} {
		for _, sw := range shardWorkerCounts() {
			res, err := env.RunProgram(context.Background(), cfg, ProgramParams{Source: src, Shots: 552, Replay: mode, ShotWorkers: sw})
			if err != nil {
				t.Fatalf("mode=%s ShotWorkers=%d: %v", mode, sw, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.StreamHash != ref.StreamHash {
				t.Fatalf("mode=%s ShotWorkers=%d: stream %x, want %x", mode, sw, res.StreamHash, ref.StreamHash)
			}
			if !reflect.DeepEqual(res.Ones, ref.Ones) {
				t.Fatalf("mode=%s ShotWorkers=%d: ones %v, want %v", mode, sw, res.Ones, ref.Ones)
			}
		}
	}
}

// TestBelowThresholdKeepsLegacySingleStream pins the compatibility half
// of the contract: at or below ShotShardSize the engine must consume the
// exact pre-sharding PRNG stream — one machine seeded with the point
// seed itself. The expected hash is computed by driving replay.Run
// directly on a fresh machine, the way the engine ran before sharding
// existed.
func TestBelowThresholdKeepsLegacySingleStream(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	src := "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"
	res, err := NewEnv().RunProgram(context.Background(), cfg, ProgramParams{Source: src, Shots: ShotShardSize, ShotWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := newProgramCache().get(src)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	_, err = replay.Run(context.Background(), m, prog, replay.Options{Shots: ShotShardSize, OnShot: func(_ int, md []replay.MD) {
		for _, r := range md {
			h.Write([]byte{byte(r.Qubit), byte(r.Result)})
		}
		h.Write([]byte{0xFF})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamHash != h.Sum64() {
		t.Fatalf("engine stream %x, legacy single-stream %x", res.StreamHash, h.Sum64())
	}
}

// TestRepCodeMatchesLegacyChunkFanout reruns the repetition-code
// experiment at every (Workers, ShotWorkers) combination and checks all
// of them — plus a by-hand reconstruction of the pre-sharding
// (variant, chunk) job fan-out with its DeriveSeed2 seeds — agree
// bit-for-bit on the measured error fractions.
func TestRepCodeMatchesLegacyChunkFanout(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRepCodeParams()
	p.Rounds = 120 // 3 chunks of the fixed 50-round plan
	var baseline *RepCodeResult
	for _, workers := range []int{1, 4} {
		for _, sw := range shardWorkerCounts() {
			p.Workers, p.ShotWorkers = workers, sw
			res, err := NewEnv().RunRepCode(context.Background(), cfg, p)
			if err != nil {
				t.Fatalf("Workers=%d ShotWorkers=%d: %v", workers, sw, err)
			}
			res.Params.Workers, res.Params.ShotWorkers = 0, 0
			if baseline == nil {
				baseline = res
				continue
			}
			if !reflect.DeepEqual(res, baseline) {
				t.Fatalf("Workers=%d ShotWorkers=%d differs from first combination", workers, sw)
			}
		}
	}

	// Legacy reconstruction: one pooled machine and one replay.Run per
	// (variant, chunk), with the historical seed DeriveSeed2(cfg.Seed,
	// variant+1, chunk) — the engine called directly, not through the
	// shot-shard runner under test.
	runCfg := cfg
	runCfg.NumQubits = 5
	for len(runCfg.Qubit) < 5 {
		runCfg.Qubit = append(runCfg.Qubit, qphys.DefaultQubitParams())
	}
	majority := func(md []replay.MD) bool {
		if len(md) < 3 {
			return true
		}
		ones := 0
		for _, r := range md[len(md)-3:] {
			ones += r.Result
		}
		return ones < 2
	}
	variants := []chunkVariant{
		{src: UnprotectedShotProgram(p), isError: func(md []replay.MD) bool { return len(md) < 1 || md[0].Result == 0 }},
		{src: RepCodeShotProgram(p, false), isError: majority},
		{src: RepCodeShotProgram(p, true), isError: majority},
	}
	env := NewEnv()
	pool := env.poolFor(runCfg)
	chunks := chunkRounds(p.Rounds, repCodeChunkRounds)
	want := []float64{baseline.Unprotected, baseline.Uncorrected, baseline.Protected}
	for v, variant := range variants {
		prog, err := env.progs.get(variant.src)
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for k, rounds := range chunks {
			m, err := pool.get(DeriveSeed2(runCfg.Seed, v+1, k))
			if err != nil {
				t.Fatal(err)
			}
			_, err = replay.Run(context.Background(), m, prog, replay.Options{Shots: rounds, Mode: p.Replay, OnShot: func(_ int, md []replay.MD) {
				if variant.isError(md) {
					errs++
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			pool.put(m)
		}
		if got := float64(errs) / float64(p.Rounds); got != want[v] {
			t.Errorf("variant %d: legacy chunk fan-out %v, sharded engine %v", v, got, want[v])
		}
	}
}

// TestLaneGroups pins the lane-grouping rule: consecutive shards,
// sliced to the lane width whatever their sizes. The grouping is a pure
// function of (plan, lanes) — and per the tentpole contract it could be
// anything at all without changing a single result byte.
func TestLaneGroups(t *testing.T) {
	cases := []struct {
		plan  []int
		lanes int
		want  [][2]int
	}{
		{[]int{200, 200, 200}, 8, [][2]int{{0, 3}}},
		{[]int{200, 200, 200}, 2, [][2]int{{0, 2}, {2, 3}}},
		{[]int{200, 200, 200}, 1, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{[]int{200, 200, 200}, 0, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{[]int{256, 256, 100}, 4, [][2]int{{0, 3}}},
		{[]int{256, 256, 100}, 2, [][2]int{{0, 2}, {2, 3}}},
		{[]int{256, 144}, 8, [][2]int{{0, 2}}},
		{[]int{256}, 4, [][2]int{{0, 1}}},
	}
	for _, c := range cases {
		if got := LaneGroups(c.plan, c.lanes); !reflect.DeepEqual(got, c.want) {
			t.Errorf("LaneGroups(%v, %d) = %v, want %v", c.plan, c.lanes, got, c.want)
		}
	}
}

// TestShardLaneGroups pins the automatic lane rule (BatchLanes 0):
// one group per shot worker, at most 8 lanes, only on the trajectory
// backend and only at lane counts the executor wins at; explicit
// counts cap the groups and ModeOff never batches.
func TestShardLaneGroups(t *testing.T) {
	traj := func(nq int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Backend = core.BackendTrajectory
		cfg.NumQubits = nq
		return cfg
	}
	plan := func(shards int) []int {
		p := make([]int, shards)
		for i := range p {
			p[i] = ShotShardSize
		}
		return p
	}
	singles := func(n int) [][2]int { return LaneGroups(plan(n), 1) }
	cases := []struct {
		name      string
		plan      []int
		lanes, sw int
		cfg       core.Config
		mode      replay.Mode
		want      [][2]int
	}{
		{"rb point", []int{256, 144}, 0, 1, traj(1), replay.ModeAuto, [][2]int{{0, 2}}},
		{"one shard per worker", []int{256, 144}, 0, 2, traj(1), replay.ModeAuto, singles(2)},
		{"two lanes lose at nq=2", []int{256, 144}, 0, 1, traj(2), replay.ModeAuto, singles(2)},
		{"four lanes win at nq=3", plan(8), 0, 2, traj(3), replay.ModeAuto, [][2]int{{0, 4}, {4, 8}}},
		{"capped at eight", plan(10), 0, 1, traj(5), replay.ModeAuto, [][2]int{{0, 5}, {5, 10}}},
		{"sixteen groups", plan(128), 0, 2, traj(5), replay.ModeAuto, LaneGroups(plan(128), 8)},
		{"density", plan(4), 0, 1, core.DefaultConfig(), replay.ModeAuto, singles(4)},
		{"mode off", plan(4), 0, 1, traj(1), replay.ModeOff, singles(4)},
		{"explicit off", plan(4), 8, 1, traj(1), replay.ModeOff, singles(4)},
		{"explicit cap", plan(4), 3, 1, traj(2), replay.ModeCompiled, [][2]int{{0, 3}, {3, 4}}},
		{"explicit scalar", plan(4), 1, 1, traj(1), replay.ModeAuto, singles(4)},
	}
	for _, c := range cases {
		if got := ShardLaneGroups(c.plan, Engine{ShotWorkers: c.sw, BatchLanes: c.lanes, Replay: c.mode}, c.cfg); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ShardLaneGroups = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunProgramStreamIdenticalAcrossBatchLanes is the tentpole
// bit-identity contract at the engine boundary: the full (shot, index,
// qubit, result) stream hash must not move by one bit when shards run
// in lockstep lanes, at any lane width, in any replay mode, under any
// shot-worker fan-out. The trajectory backend is the one with a batched
// executor; the density sweep below pins the graceful demotion.
func TestRunProgramStreamIdenticalAcrossBatchLanes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.NumQubits = 2
	src := "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nMPG {q1}, 300\nMD {q1}, r8\nhalt\n"
	env := NewEnv()
	var ref *ProgramResult
	for _, mode := range []replay.Mode{replay.ModeOff, replay.ModeCompiled, replay.ModeAuto} {
		for _, lanes := range []int{0, 1, 2, 3, 8} {
			for _, sw := range []int{1, 4} {
				res, err := env.RunProgram(context.Background(), cfg, ProgramParams{Source: src, Shots: 552, Replay: mode, ShotWorkers: sw, BatchLanes: lanes})
				if err != nil {
					t.Fatalf("mode=%s lanes=%d sw=%d: %v", mode, lanes, sw, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.StreamHash != ref.StreamHash {
					t.Fatalf("mode=%s lanes=%d sw=%d: stream %x, want %x", mode, lanes, sw, res.StreamHash, ref.StreamHash)
				}
				if !reflect.DeepEqual(res.Ones, ref.Ones) {
					t.Fatalf("mode=%s lanes=%d sw=%d: ones %v, want %v", mode, lanes, sw, res.Ones, ref.Ones)
				}
			}
		}
	}
}

// TestBatchLanesNeutralOnDensityBackend pins the demotion half of the
// contract: the density backend has no batched executor, so any
// BatchLanes value must fall back to per-lane scalar execution with —
// as everywhere — bit-identical results.
func TestBatchLanesNeutralOnDensityBackend(t *testing.T) {
	cfg := core.DefaultConfig()
	src := "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"
	env := NewEnv()
	var ref *ProgramResult
	for _, lanes := range []int{0, 8} {
		res, err := env.RunProgram(context.Background(), cfg, ProgramParams{Source: src, Shots: 552, ShotWorkers: 4, BatchLanes: lanes})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.StreamHash != ref.StreamHash {
			t.Fatalf("lanes=%d: stream %x, want %x", lanes, res.StreamHash, ref.StreamHash)
		}
	}
}

// TestSweepBitIdenticalAcrossBatchLanes runs the T1 sweep with batching
// enabled and demands the full result struct match the scalar engine.
// 600 shots shard as [256 256 88], so every batch carries a short
// remainder lane; BatchLanes 0 with one shot worker is the automatic
// rule's three-lane group.
func TestSweepBitIdenticalAcrossBatchLanes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	p := DefaultSweepParams()
	p.Rounds = 600
	p.DelaysCycles = []int{0, 800, 1600}
	var baseline *T1Result
	for _, c := range []struct{ lanes, sw int }{{1, 0}, {0, 1}, {0, 0}, {2, 0}, {8, 0}, {8, 1}} {
		p.BatchLanes, p.ShotWorkers = c.lanes, c.sw
		res, err := NewEnv().RunT1(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("BatchLanes=%d ShotWorkers=%d: %v", c.lanes, c.sw, err)
		}
		res.Params.BatchLanes, res.Params.ShotWorkers = 0, 0
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(res, baseline) {
			t.Fatalf("BatchLanes=%d ShotWorkers=%d result differs from scalar engine", c.lanes, c.sw)
		}
	}
}

// TestRepCodeBitIdenticalAcrossBatchLanes covers the chunked-variant
// path (repetition code) under lane batching.
func TestRepCodeBitIdenticalAcrossBatchLanes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	p := DefaultRepCodeParams()
	p.Rounds = 600
	var baseline *RepCodeResult
	for _, lanes := range []int{1, 0, 4} {
		p.BatchLanes = lanes
		res, err := NewEnv().RunRepCode(context.Background(), cfg, p)
		if err != nil {
			t.Fatalf("BatchLanes=%d: %v", lanes, err)
		}
		res.Params.BatchLanes = 0
		if baseline == nil {
			baseline = res
			continue
		}
		if !reflect.DeepEqual(res, baseline) {
			t.Fatalf("BatchLanes=%d result differs from scalar engine", lanes)
		}
	}
}

// TestShardOverheadAccounting pins the Stats.Lead/Overhead bookkeeping
// (the sharding-overhead half of the metrics bugfix). An at-or-below-
// threshold job runs one stream and must report zero shard overhead; a
// sharded job pays the lead once per shard, and everything beyond the
// first shard's lead is overhead. The shard plan itself is
// schema-frozen, so these numbers are exact, not bounds.
func TestShardOverheadAccounting(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	env := NewEnv()
	prog, err := env.progs.get("mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	pool := env.poolFor(cfg)

	// At threshold: legacy single stream, lead paid once, zero overhead.
	st, err := runShotJobSharded(context.Background(), pool, cfg.Seed, prog, ShotShardSize, ShotShardPlan(ShotShardSize), Engine{ShotWorkers: 4, Replay: replay.ModeAuto}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Safe || st.Lead == 0 {
		t.Fatalf("single-stream job not replayed: %+v", st)
	}
	if st.Overhead != 0 {
		t.Fatalf("single-stream job reports shard overhead %d, want 0", st.Overhead)
	}
	leadPerStream := st.Lead

	// Sharded (600 → 3 shards): lead once per shard, overhead = the lead
	// of every shard after the first. Identical with and without lanes.
	for _, lanes := range []int{0, 8} {
		plan := ShotShardPlan(600)
		st, err := runShotJobSharded(context.Background(), pool, cfg.Seed, prog, 600, plan, Engine{ShotWorkers: 4, BatchLanes: lanes, Replay: replay.ModeAuto}, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := leadPerStream * len(plan); st.Lead != want {
			t.Errorf("lanes=%d: merged Lead = %d, want %d", lanes, st.Lead, want)
		}
		if want := leadPerStream * (len(plan) - 1); st.Overhead != want {
			t.Errorf("lanes=%d: merged Overhead = %d, want %d", lanes, st.Overhead, want)
		}
	}

	// ModeOff never engages replay: every shot is ordinary full-pipeline
	// work, so no lead and no overhead, sharded or not.
	st, err = runShotJobSharded(context.Background(), pool, cfg.Seed, prog, 600, ShotShardPlan(600), Engine{ShotWorkers: 4, Replay: replay.ModeOff}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lead != 0 || st.Overhead != 0 {
		t.Errorf("ModeOff job reports Lead=%d Overhead=%d, want 0/0", st.Lead, st.Overhead)
	}
}

// TestShardPlanMismatchRejected pins the runner's self-check: a plan
// that does not cover the shot range is a programming error, reported —
// not silently truncated.
func TestShardPlanMismatchRejected(t *testing.T) {
	cfg := core.DefaultConfig()
	env := NewEnv()
	prog, err := env.progs.get("mov r1, 1\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = runShotJobSharded(context.Background(), env.poolFor(cfg), 1, prog, 500, []int{100, 100}, Engine{ShotWorkers: 2, Replay: replay.ModeAuto}, nil, nil, nil)
	if err == nil {
		t.Fatal("mismatched shard plan accepted")
	}
}

// TestShardSeedDerivation pins the per-shard seed rule the docs promise:
// shard k of point seed s runs ResetState(DeriveSeed(s, k)), equal to
// DeriveSeed2 composition used by the chunked experiments.
func TestShardSeedDerivation(t *testing.T) {
	for v := 0; v < 4; v++ {
		for k := 0; k < 4; k++ {
			if got, want := DeriveSeed(DeriveSeed(7, v+1), k), DeriveSeed2(7, v+1, k); got != want {
				t.Fatalf("DeriveSeed(DeriveSeed(7,%d),%d) = %d, DeriveSeed2 = %d", v+1, k, got, want)
			}
		}
	}
}

// BenchmarkShardedT1Point measures one sharded sweep point end to end
// (engine overhead, not physics: small rounds keep it in the smoke
// budget).
func BenchmarkShardedT1Point(b *testing.B) {
	cfg := core.DefaultConfig()
	env := NewEnv()
	prog, err := env.progs.get("mov r15, 40\nQNopReg r15\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n")
	if err != nil {
		b.Fatal(err)
	}
	pool := env.poolFor(cfg)
	shots := 600
	plan := ShotShardPlan(shots)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runShotJobSharded(context.Background(), pool, 1, prog, shots, plan, Engine{Replay: replay.ModeAuto}, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedRepCode is the tentpole's perf gate: compiled-replay
// repetition-code shots through the sharded runner, swept over lane
// widths against the scalar sharded baseline (lanes 0) at two code
// sizes. ShotWorkers is pinned to 1 so the numbers isolate the
// lockstep SoA executor's per-shot win, not goroutine parallelism; the
// seeds and shard plan are identical across the sweep, so every
// variant computes the same result bytes. Run with -benchmem: steady
// state must not allocate per shot. The batched win grows with state
// size — at d=3 (dim 32) the 4 KiB state leaves per-op orchestration
// and the per-lane variate draws un-amortized (~1.4x at 8 lanes on the
// reference box); at d=5 (dim 512) the span kernels dominate and 8
// lanes clears 1.8x.
func BenchmarkBatchedRepCode(b *testing.B) {
	for _, dq := range []int{3, 5} {
		cfg := core.DefaultConfig()
		cfg.Backend = core.BackendTrajectory
		p := DefaultRepCodeParams()
		p.DataQubits = dq
		cfg.NumQubits = 2*dq - 1
		for len(cfg.Qubit) < cfg.NumQubits {
			cfg.Qubit = append(cfg.Qubit, qphys.DefaultQubitParams())
		}
		env := NewEnv()
		prog, err := env.progs.get(RepCodeShotProgram(p, false))
		if err != nil {
			b.Fatal(err)
		}
		pool := env.poolFor(cfg)
		const shots = 2048
		plan := ShotShardPlan(shots)
		for _, lanes := range []int{1, 4, 8} {
			name := "scalar"
			if lanes > 1 {
				name = fmt.Sprintf("lanes-%d", lanes)
			}
			b.Run(fmt.Sprintf("d%d/%s", dq, name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := runShotJobSharded(context.Background(), pool, 7, prog, shots, plan, Engine{ShotWorkers: 1, BatchLanes: lanes, Replay: replay.ModeAuto}, nil, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/shots, "ns/shot")
			})
		}
	}
}
