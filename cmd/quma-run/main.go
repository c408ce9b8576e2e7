// Command quma-run executes a QuMA assembly program on the simulated
// control box + transmon chip and reports the machine state afterwards:
// registers, measurement counts, averaged integration results, and
// (optionally) the deterministic-domain event timeline.
//
// With -shots N > 1 the program runs N times through the shot-replay
// engine (internal/replay): the classical pipeline is simulated for the
// leading shots and, when the program is detected replay-safe, the
// recorded quantum schedule is replayed for the rest — bit-identical
// results, order-of-magnitude faster on shot-heavy programs. -replay=off
// forces full per-shot simulation. Note that replayed shots perform no
// classical execution, so final register contents reflect the last fully
// simulated shot; programs whose registers matter are detected unsafe and
// fall back automatically.
//
// Shot counts above expt.ShotShardSize are split across the fixed shot-
// shard plan (expt.ShotShardPlan): shard k runs on its own machine seeded
// DeriveSeed(seed, k), up to -shot-workers shards concurrently. The plan,
// seeds, and merge order depend only on the shot count, so results are
// bit-identical for any -shot-workers value. On the trajectory backend,
// groups of consecutive shards run in lockstep on the batched executor
// (one lane per shard, same seeds, same streams — bit-identical results,
// higher throughput): -lanes L > 1 caps a group at L shards, -lanes 1
// runs every shard scalar, and the default -lanes 0 picks the grouping
// with the sweep engine's own rule (expt.ShardLaneGroups). Instruction,
// pulse, and measurement counters sum across shards; registers, final
// qubit state, and the timeline come from the last shard's machine; the
// data collection unit's averages merge exactly across the shards.
//
// Usage:
//
//	quma-run [-qubits N] [-backend density|trajectory] [-seed S] [-trace] [-collect K] prog.qasm
//	quma-run -shots 10000 -replay auto prog.qasm
//	quma-run -shots 100000 -shot-workers 8 prog.qasm
//	quma-run -backend trajectory -shots 100000 -lanes 8 prog.qasm
//	quma-run -cpuprofile cpu.pprof -shots 10000 prog.qasm
//	quma-run -bin prog.bin          # hex words from quma-asm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sync"
	"sync/atomic"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/isa"
	"quma/internal/replay"
)

func main() {
	var (
		qubits      = flag.Int("qubits", 1, "number of simulated qubits (1-8 density, 1-16 trajectory)")
		backend     = flag.String("backend", "density", "quantum-state backend: density (exact, O(4^n)) or trajectory (Monte-Carlo statevector, O(2^n))")
		seed        = flag.Int64("seed", 1, "PRNG seed")
		trace       = flag.Bool("trace", false, "print the deterministic-domain event timeline")
		collect     = flag.Int("collect", 0, "enable the data collection unit with K results per round")
		amperr      = flag.Float64("amp-error", 0, "fractional pulse amplitude miscalibration ε")
		binary      = flag.Bool("bin", false, "input is a binary (hex words) produced by quma-asm")
		shots       = flag.Int("shots", 1, "number of times to run the program on one machine (the shot loop of an experiment)")
		shotWorkers = flag.Int("shot-workers", 0, "bound on concurrent shot shards when -shots exceeds the shard threshold (0 = one per CPU); results are bit-identical for any value")
		lanes       = flag.Int("lanes", 0, "run groups of up to this many shot shards in lockstep on the batched trajectory executor (0 = auto, 1 = scalar); results are bit-identical for any value")
		replayMode  = flag.String("replay", "auto", "shot-replay engine mode: compiled (replay the compiled schedule when safe; results are bit-identical to off), auto (= compiled), or off (full simulation per shot); interp is a deprecated alias of compiled")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: quma-run [flags] <prog.qasm>")
		os.Exit(2)
	}
	// Validate flag values up front with a clear non-zero exit: an
	// unknown backend or replay mode, or a non-positive shot count, must
	// never silently fall back to a default.
	mode, err := validateFlags(*backend, *replayMode, *shots, *shotWorkers, *lanes)
	if err != nil {
		fail(err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
		// fail() exits the process, which would skip the deferred flush
		// and truncate the profile — precisely when profiling a failing
		// hot path. Flush before any error exit.
		cpuProfiling = true
	}

	cfg := core.DefaultConfig()
	cfg.NumQubits = *qubits
	cfg.Backend = core.Backend(*backend)
	cfg.Seed = *seed
	cfg.CollectK = *collect
	cfg.AmplitudeError = *amperr
	cfg.TraceEvents = *trace

	m, err := core.New(cfg)
	if err != nil {
		fail(err)
	}

	var prog *isa.Program
	if *binary {
		var words []uint32
		for lineNo, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			var word uint32
			if _, err := fmt.Sscanf(line, "%x", &word); err != nil {
				fail(fmt.Errorf("line %d: %q is not a hex word", lineNo+1, line))
			}
			words = append(words, word)
		}
		prog, err = isa.DecodeProgram(words, isa.StandardSymbols())
	} else {
		prog, err = asm.Assemble(string(src))
	}
	if err != nil {
		fail(err)
	}

	machines := []*core.Machine{m}
	plan := expt.ShotShardPlan(*shots)
	switch {
	case *shots == 1:
		if err := m.RunProgram(prog); err != nil {
			fail(err)
		}
	case plan == nil:
		stats, err := replay.Run(context.Background(), m, prog, replay.Options{Shots: *shots, Mode: mode})
		if err != nil {
			fail(err)
		}
		printEngine(stats)
	default:
		stats, shardMachines, err := runSharded(cfg, prog, plan, *shotWorkers, *lanes, mode)
		if err != nil {
			fail(err)
		}
		machines = shardMachines
		m = machines[len(machines)-1]
		// Lead/Overhead come from the merged engine stats: overhead is
		// the recording cost sharding added over an unsharded run (zero
		// at or below the shard threshold, where this line never prints).
		fmt.Printf("shot-shard plan: %d shards of ≤%d shots (%d lead/detect shots, %d sharding overhead)\n",
			len(plan), expt.ShotShardSize, stats.Lead, stats.Overhead)
		printEngine(stats)
	}

	var steps, pulses, measurements uint64
	for _, sm := range machines {
		steps += sm.Controller.Steps
		pulses += sm.PulsesPlayed
		measurements += sm.Measurements
	}
	fmt.Printf("program completed: %d instructions executed\n", steps)
	fmt.Printf("pulses played: %d, measurements: %d\n", pulses, measurements)
	fmt.Printf("CTPG memory footprint: %d bytes (12-bit samples)\n", m.MemoryFootprintBytes())
	fmt.Println("registers:")
	for r, v := range m.Controller.Regs {
		if v != 0 {
			fmt.Printf("  r%-2d = %d\n", r, v)
		}
	}
	for q := 0; q < *qubits; q++ {
		fmt.Printf("qubit %d final P(|1>) = %.4f\n", q, m.State.ProbExcited(q))
	}
	if m.Collector != nil {
		// Merge the shard collectors exactly: sums and counts added in
		// shard order, divided once (identical to a single collector when
		// there is one machine).
		sums := make([]float64, m.Collector.K)
		counts := make([]int, m.Collector.K)
		rounds := 0
		for _, sm := range machines {
			for i, s := range sm.Collector.Sums() {
				sums[i] += s
			}
			for i, c := range sm.Collector.Counts() {
				counts[i] += c
			}
			rounds += sm.Collector.Rounds()
		}
		fmt.Printf("data collection unit: %d complete rounds, averages:\n", rounds)
		for i := range sums {
			avg := 0.0
			if counts[i] > 0 {
				avg = sums[i] / float64(counts[i])
			}
			fmt.Printf("  S[%d] = %.4f\n", i, avg)
		}
	}
	if *trace {
		fmt.Println("deterministic-domain timeline:")
		for _, e := range m.Trace() {
			fmt.Println("  " + e.String())
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
}

// printEngine reports what the shot-replay engine did.
func printEngine(stats replay.Stats) {
	if stats.Safe {
		fmt.Printf("shot-replay engine: %d/%d shots replayed from the compiled schedule\n", stats.Replayed, stats.Shots)
		return
	}
	fmt.Printf("shot-replay engine: full simulation (%s)\n", stats.Reason)
}

// runSharded executes the shot-shard plan: shard k runs plan[k] shots on
// a fresh machine seeded expt.DeriveSeed(cfg.Seed, k) with its global
// shot offset as replay.Options.BaseShot. The shards are partitioned
// into lockstep batch groups by the sweep engine's policy
// (expt.ShardLaneGroups) and each group runs as one replay.RunBatch
// call — one lane per shard, same seeds, same streams, so the grouping
// can never change a result byte. Up to `workers` groups run
// concurrently (0 = one per CPU). Stats merge in shard order; the
// machines return in shard order too, so the caller's "last machine"
// state is deterministic.
func runSharded(cfg core.Config, prog *isa.Program, plan []int, workers, lanes int, mode replay.Mode) (replay.Stats, []*core.Machine, error) {
	groups := expt.ShardLaneGroups(plan, lanes, workers, cfg, mode)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	starts := make([]int, len(plan))
	for k := 1; k < len(plan); k++ {
		starts[k] = starts[k-1] + plan[k-1]
	}
	machines := make([]*core.Machine, len(plan))
	statsv := make([]replay.Stats, len(plan))
	errs := make([]error, len(groups))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1))
				if gi >= len(groups) {
					return
				}
				g0, g1 := groups[gi][0], groups[gi][1]
				bl := make([]replay.BatchLane, 0, g1-g0)
				for k := g0; k < g1; k++ {
					scfg := cfg
					scfg.Seed = expt.DeriveSeed(cfg.Seed, k)
					sm, err := core.New(scfg)
					if err != nil {
						errs[gi] = err
						break
					}
					machines[k] = sm
					bl = append(bl, replay.BatchLane{M: sm, BaseShot: starts[k], Shots: plan[k]})
				}
				if errs[gi] != nil {
					continue
				}
				sts, err := replay.RunBatch(context.Background(), prog, bl, 0, mode)
				copy(statsv[g0:g1], sts)
				errs[gi] = err
			}
		}()
	}
	wg.Wait()
	for gi := range groups {
		if errs[gi] != nil {
			return replay.Stats{}, nil, errs[gi]
		}
	}
	var merged replay.Stats
	for k := range plan {
		merged.Merge(statsv[k])
	}
	return merged, machines, nil
}

// validateFlags rejects unknown -backend/-replay values, non-positive
// -shots, and negative -shot-workers/-lanes before any machine is
// built, so a typo fails loudly instead of silently running under a
// default.
func validateFlags(backend, replayMode string, shots, shotWorkers, lanes int) (replay.Mode, error) {
	if shots < 1 {
		return "", fmt.Errorf("-shots must be positive, got %d", shots)
	}
	if shotWorkers < 0 {
		return "", fmt.Errorf("-shot-workers must be non-negative (0 selects one per CPU), got %d", shotWorkers)
	}
	if lanes < 0 {
		return "", fmt.Errorf("-lanes must be non-negative (0 selects automatic grouping, 1 scalar shards), got %d", lanes)
	}
	switch core.Backend(backend) {
	case core.BackendDensity, core.BackendTrajectory:
	default:
		return "", fmt.Errorf("unknown -backend %q (want %q or %q)", backend, core.BackendDensity, core.BackendTrajectory)
	}
	mode, err := replay.ParseMode(replayMode)
	if err != nil {
		return "", fmt.Errorf("invalid -replay value: %w", err)
	}
	return mode, nil
}

// cpuProfiling records that a CPU profile is active, so fail can flush
// it before os.Exit skips the deferred stop.
var cpuProfiling bool

func fail(err error) {
	if cpuProfiling {
		pprof.StopCPUProfile()
	}
	fmt.Fprintln(os.Stderr, "quma-run:", err)
	os.Exit(1)
}
