package expt

// sweep.go is the shared parallel experiment sweep engine. Every
// experiment in this package decomposes into independent sweep points
// (delay values, AllXY pairs, RB (length, trial) pairs, repetition-code
// round chunks); each point runs its per-shot program through the
// shot-replay engine (internal/replay) on a pooled core.Machine with a
// deterministically derived seed. The contract:
//
//   - Point i of a sweep with base seed S always runs on a machine in
//     the ResetState(DeriveSeed(S, i)) condition (experiments with
//     several sub-streams derive nested seeds via DeriveSeed2). Seeds
//     depend only on (S, i), never on scheduling — and ResetState makes
//     a pooled machine bit-identical to a fresh one, so neither does
//     machine reuse.
//   - The shot loop lives in the engine (Shots = Rounds), not in the
//     program text: per-shot programs carry no round counters and no
//     classical result accumulation. Per-shot results arrive as the
//     engine's measurement stream, and experiments count in Go — which
//     is exactly what keeps feedback-free programs replay-safe.
//   - runPool writes each point's result into its own slot and runs every
//     job even if another fails, returning the lowest-index error — so
//     results and errors are bit-identical regardless of worker count.
//     The one early exit is cancellation: a done context skips remaining
//     points and fails the sweep with the ctx error, so a canceled
//     experiment never returns a partial result. Worker panics are
//     recovered into *PanicError (the panicking point's machine is
//     discarded, not pooled) so one bad point cannot kill the process.
//   - Config values handed to workers are deep-copied (the Qubit slice is
//     the only reference field) so concurrent machines share nothing;
//     each distinct program text assembles once per sweep (programCache).
//   - cfg.Backend and Params.Replay ride through unchanged: every
//     experiment runs on either state backend, with replay on or off,
//     with bit-identical results (replay_test.go enforces this).

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// Engine holds an experiment's execution settings: how its sweep points
// and shots are scheduled, and which shot engine runs them. None of them
// changes a result byte — the sweep, shot-shard and replay determinism
// contracts make every value produce the same results — so each is a
// throughput knob, and its zero value selects the default. Every sweep
// experiment's Params embeds one Engine; ProgramParams carries the
// shot-level three.
type Engine struct {
	// Workers bounds the sweep parallelism across an experiment's points
	// (0 = one worker per CPU); see runPool.
	Workers int
	// ShotWorkers bounds the shot-shard parallelism inside each point —
	// across the ShotShardSize shards of a point whose Rounds exceed it,
	// or across repcode/phasecode's fixed round chunks (0 = one worker
	// per CPU); see shotshard.go.
	ShotWorkers int
	// BatchLanes caps how many shot shards run in lockstep on the
	// batched trajectory executor, one lane per shard with the shard's
	// seed and stream. 0 is automatic (ShardLaneGroups): the shards a
	// shot worker would run back to back form one group, and groups
	// smaller than the lockstep executor's measured break-even stay
	// scalar. 1 runs every shard scalar.
	BatchLanes int
	// Replay selects the shot-replay engine mode: replay.ModeOff (full
	// simulation of every shot) or ModeCompiled ("" and ModeAuto select
	// it; the deprecated ModeInterp is an alias of it). Programs whose
	// pulse schedule depends on measured results (the feedback-corrected
	// repcode variant, the phase code) always fall back to full
	// simulation; see internal/replay.
	Replay replay.Mode
}

// DeriveSeed deterministically derives an independent PRNG seed for sweep
// point `index` of a sweep with the given base seed, using the splitmix64
// finalizer for mixing. The result is non-negative and depends only on
// (base, index).
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// DeriveSeed2 derives a seed from a base and two indices (e.g. a variant
// and a chunk within it).
func DeriveSeed2(base int64, a, b int) int64 {
	return DeriveSeed(DeriveSeed(base, a), b)
}

// PanicError wraps a panic recovered from a sweep worker: the panic
// value and the stack captured at the recovery site. Converting the
// panic into an error keeps one failing sweep point from killing the
// whole process — the sweep fails like any other erroring job, the
// machine the point was running on is discarded instead of returned to
// its pool, and callers (the batch service) map it to a structured
// `internal` failure.
type PanicError struct {
	// Value is the formatted panic value.
	Value string
	// Stack is the goroutine stack captured by the recovery handler.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in sweep worker: %s", e.Value)
}

// recoverJob runs job(i), converting a panic into a *PanicError. A
// panicking job unwinds past the shot-shard group runner's
// machine-return path (runShotJobSharded), so the machines it was
// driving — whose state is unknowable mid-panic — are discarded to the
// garbage collector rather than pooled.
func recoverJob(job func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	return job(i)
}

// runPool executes jobs 0..n-1 on up to `workers` goroutines (workers <= 0
// means one per available CPU). Jobs must be independent and write results
// into per-index slots. Every job runs exactly once even when others fail —
// unless ctx is done, which is the one early exit: remaining jobs are
// skipped and their slots record the ctx error, so a canceled sweep always
// returns a non-nil error (and therefore no result escapes the experiment).
// The returned error is the lowest-index failure; with cancellation in
// play that is the ctx error of the first skipped job or the preemption
// error of an interrupted one — either way errors.Is-matchable against
// context.Canceled / context.DeadlineExceeded. A panicking job is
// recovered into a *PanicError instead of crossing the goroutine boundary
// and killing the process. All properties together keep the sweep outcome
// independent of the worker count.
func runPool(ctx context.Context, n, workers int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("expt: sweep point %d skipped: %w", i, err)
				continue
			}
			errs[i] = recoverJob(job, i)
		}
	}
	// The caller is one of the workers, so a one-worker pool — every
	// shot job of a one-shot-worker sweep — starts no goroutine.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// programCache assembles each distinct program text once per cache
// lifetime (per Env: one command's run, or the whole service for the
// Env held by internal/service). Sweep points that share a program
// (every repetition-code chunk of a variant, every Rabi amplitude point,
// every shot-hoisted program reused across worker jobs) hit the cache;
// assembled programs are immutable, so concurrent machines share them
// safely.
type programCache struct {
	mu    sync.Mutex
	progs map[string]*isa.Program
}

// maxCachedPrograms bounds the cache: a service-lifetime Env fed a
// stream of distinct program texts (e.g. asm requests with unique
// literals) must not grow without bound. On overflow the whole map is
// flushed — an epoch reset, not LRU: program pointers stay stable within
// an epoch (what the per-machine ReplayCache keying wants), and a flush
// only costs re-assembly, never correctness.
const maxCachedPrograms = 1024

func newProgramCache() *programCache {
	return &programCache{progs: make(map[string]*isa.Program)}
}

// get returns the program src assembles to, assembling it on a miss.
func (c *programCache) get(src string) (*isa.Program, error) {
	return c.getOrBuild(src, asm.Assemble)
}

// getOrBuild returns the cached program for src or, on a miss, caches
// and returns build(src), which must be what asm.Assemble(src) returns.
// The cache stays keyed by text whichever built the program, so a
// program keeps its pointer identity for the replay memo.
func (c *programCache) getOrBuild(src string, build func(string) (*isa.Program, error)) (*isa.Program, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.progs[src]; ok {
		return p, nil
	}
	p, err := build(src)
	if err != nil {
		return nil, err
	}
	if len(c.progs) >= maxCachedPrograms {
		c.progs = make(map[string]*isa.Program)
	}
	c.progs[src] = p
	return p, nil
}

// FaultHooks are the narrow fault-injection points of the sweep engine,
// consumed by internal/faultinject's deterministic fault plans. A nil
// *FaultHooks (the default everywhere outside chaos tests) costs one nil
// check per sweep point — the hooks never appear on the per-shot hot
// path unless installed. Install with Env.SetFaults before the first
// experiment on that Env.
type FaultHooks struct {
	// PoolGet runs before every machine-pool acquisition; a non-nil error
	// fails that sweep point exactly as a machine-construction error
	// would (exercising the error path between the pool and the runner).
	PoolGet func() error
	// Shot runs after every engine shot of every sweep point, with the
	// shot index. It has no error return on purpose: its two fault modes
	// are panicking (exercising worker panic isolation — the machine is
	// discarded, the job fails `internal`, the process survives) and
	// sleeping (forcing a deadline to expire mid-sweep).
	Shot func(shot int)
}

// machinePool reuses core.Machine instances across the points of one
// sweep via Machine.ResetState: construction (waveform synthesis, LUT
// upload, MDU calibration) is paid once per worker instead of once per
// point, while ResetState(seed) guarantees a pooled machine behaves
// bit-identically to a fresh core.New with that seed — so the sweep
// determinism contract (results independent of worker count and of which
// machine served which point) is preserved. Two caveats ride along:
// custom LUT uploads and µop definitions survive the reset, so a
// runShotJobSharded setup that customizes the machine must do so
// unconditionally on every point (see Machine.ResetState); and a machine
// whose job panicked is never returned here — its state is unknowable,
// so it is discarded and the pool rebuilds on the next get.
//
// The free list is a plain mutex-guarded LIFO stack, not a sync.Pool: a
// pooled machine carries its compiled-replay memo (Machine.ReplayCache),
// which lets it skip the pipeline lead of every program it has proven,
// so losing one to a garbage collection — or to another P's private
// slot — costs a core.New and a full-pipeline lead per program. The
// stack keeps every returned machine until the Env flushes the pool
// (maxPoolShards), and since get builds a machine only when the stack is
// empty, it never holds more machines than the pool has had out at once.
type machinePool struct {
	cfg    core.Config
	faults *FaultHooks
	mu     sync.Mutex
	free   []*core.Machine
}

func newMachinePool(cfg core.Config) *machinePool {
	cfg.Qubit = append([]qphys.QubitParams(nil), cfg.Qubit...)
	return &machinePool{cfg: cfg}
}

func (mp *machinePool) get(seed int64) (*core.Machine, error) {
	if h := mp.faults; h != nil && h.PoolGet != nil {
		if err := h.PoolGet(); err != nil {
			return nil, err
		}
	}
	mp.mu.Lock()
	var m *core.Machine
	if n := len(mp.free); n > 0 {
		m = mp.free[n-1]
		mp.free[n-1] = nil
		mp.free = mp.free[:n-1]
	}
	mp.mu.Unlock()
	if m != nil {
		m.ResetState(seed)
		return m, nil
	}
	// core.New copies Cfg.Qubit, so machines built concurrently from
	// the pool's config share no parameters.
	cfg := mp.cfg
	cfg.Seed = seed
	return core.New(cfg)
}

func (mp *machinePool) put(m *core.Machine) {
	mp.mu.Lock()
	mp.free = append(mp.free, m)
	mp.mu.Unlock()
}

// chunkRounds partitions `total` rounds into fixed-size chunks. The
// partition depends only on (total, size), keeping chunked sweeps
// deterministic across worker counts.
func chunkRounds(total, size int) []int {
	if size <= 0 {
		size = total
	}
	var out []int
	for total > 0 {
		c := size
		if total < size {
			c = total
		}
		out = append(out, c)
		total -= c
	}
	return out
}
