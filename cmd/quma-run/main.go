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
// forces full per-shot simulation. Replayed shots perform no classical
// execution, and a pooled machine that has already proven the program
// replays its lead shots too, so when any shot was replayed the
// instruction count and the registers are not printed: they would depend
// on the shard layout, -lanes and -shot-workers. Programs whose
// registers matter are detected unsafe and fall back automatically.
//
// Every -shots N > 1 run goes through the sweep engine's shot-shard
// runner (expt.RunShots). Shot counts above expt.ShotShardSize are split
// across the fixed shot-shard plan (expt.ShotShardPlan): shard k runs on
// its own machine seeded DeriveSeed(seed, k), up to -shot-workers shards
// concurrently; smaller counts run one shard seeded with -seed. The plan,
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
// (-trace keeps every lead shot on the pipeline, which alone produces
// the timeline.)
//
// Failures follow the engine's error rule: a shard's panic is recovered
// into an error instead of crashing, the first failing shard cancels its
// siblings, and the error reported is the lowest-index shard error that
// is not a sibling's cancellation. Which shard fails first can depend on
// scheduling when -shot-workers > 1, so the shot named in the error of a
// program that fails in several shards can vary with -shot-workers; the
// exit status cannot.
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

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

	var reports []shardReport
	var stats *replay.Stats
	if *shots == 1 {
		m, err := core.New(cfg)
		if err != nil {
			fail(err)
		}
		if err := m.RunProgram(prog); err != nil {
			fail(err)
		}
		reports = []shardReport{reportOf(m, true)}
	} else {
		eng := expt.Engine{ShotWorkers: *shotWorkers, BatchLanes: *lanes, Replay: mode}
		st, rs, err := runShots(cfg, prog, *shots, eng)
		if err != nil {
			fail(err)
		}
		stats, reports = &st, rs
	}
	printRun(os.Stdout, reports, stats, cfg.CollectK, *trace)

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

// printRun writes the run report to w: one report per shard in shard
// order, and the merged engine stats (nil for a -shots 1 run, which runs
// the pipeline without the engine). The instruction count and the
// registers are printed only when no shot was replayed: replayed shots
// execute no instructions, and which lead shots ran on the pipeline
// depends on machine reuse across shards, so those figures would vary
// with -lanes and -shot-workers where everything printed must not.
func printRun(w io.Writer, reports []shardReport, stats *replay.Stats, collectK int, trace bool) {
	if stats != nil {
		if len(reports) > 1 {
			// Lead/Overhead come from the merged engine stats: overhead
			// is the recording cost sharding added over an unsharded run
			// (zero at or below the shard threshold, where this line
			// never prints).
			fmt.Fprintf(w, "shot-shard plan: %d shards of ≤%d shots (%d lead/detect shots, %d sharding overhead)\n",
				len(reports), expt.ShotShardSize, stats.Lead, stats.Overhead)
		}
		if stats.Safe {
			fmt.Fprintf(w, "shot-replay engine: %d/%d shots replayed from the compiled schedule\n", stats.Replayed, stats.Shots)
		} else {
			fmt.Fprintf(w, "shot-replay engine: full simulation (%s)\n", stats.Reason)
		}
	}
	classical := stats == nil || stats.Replayed == 0

	last := reports[len(reports)-1]
	var steps, pulses, measurements uint64
	for _, r := range reports {
		steps += r.steps
		pulses += r.pulses
		measurements += r.measurements
	}
	if classical {
		fmt.Fprintf(w, "program completed: %d instructions executed\n", steps)
	} else {
		fmt.Fprintln(w, "program completed: replayed shots keep no classical state (instruction count and registers not shown)")
	}
	fmt.Fprintf(w, "pulses played: %d, measurements: %d\n", pulses, measurements)
	fmt.Fprintf(w, "CTPG memory footprint: %d bytes (12-bit samples)\n", last.footprint)
	if classical {
		fmt.Fprintln(w, "registers:")
		for r, v := range last.regs {
			if v != 0 {
				fmt.Fprintf(w, "  r%-2d = %d\n", r, v)
			}
		}
	}
	for q, p := range last.p1 {
		fmt.Fprintf(w, "qubit %d final P(|1>) = %.4f\n", q, p)
	}
	if collectK > 0 {
		// Merge the shard collectors exactly: sums and counts added in
		// shard order, divided once (identical to a single collector when
		// there is one shard).
		sums := make([]float64, collectK)
		counts := make([]int, collectK)
		rounds := 0
		for _, r := range reports {
			for i, s := range r.sums {
				sums[i] += s
			}
			for i, c := range r.counts {
				counts[i] += c
			}
			rounds += r.rounds
		}
		fmt.Fprintf(w, "data collection unit: %d complete rounds, averages:\n", rounds)
		for i := range sums {
			avg := 0.0
			if counts[i] > 0 {
				avg = sums[i] / float64(counts[i])
			}
			fmt.Fprintf(w, "  S[%d] = %.4f\n", i, avg)
		}
	}
	if trace {
		fmt.Fprintln(w, "deterministic-domain timeline:")
		for _, e := range last.trace {
			fmt.Fprintln(w, "  "+e.String())
		}
	}
}

// shardReport is what quma-run prints from one shard's machine: the
// counters and collector sums/counts/rounds, which merge across shards,
// and — from the last shard only — registers, P(|1⟩) per qubit, CTPG
// footprint and the timeline.
type shardReport struct {
	steps, pulses, measurements uint64
	sums                        []float64
	counts                      []int
	rounds                      int
	footprint                   int
	regs                        [isa.NumRegs]int64
	p1                          []float64
	trace                       []core.TraceEntry
}

// reportOf copies a machine's report out of it; last adds the fields
// printed from the last shard alone.
func reportOf(m *core.Machine, last bool) shardReport {
	r := shardReport{steps: m.Controller.Steps, pulses: m.PulsesPlayed, measurements: m.Measurements}
	if c := m.Collector; c != nil {
		r.sums, r.counts, r.rounds = c.Sums(), c.Counts(), c.Rounds()
	}
	if last {
		r.footprint = m.MemoryFootprintBytes()
		r.regs = m.Controller.Regs
		r.trace = append([]core.TraceEntry(nil), m.Trace()...)
		for q := 0; q < m.Cfg.NumQubits; q++ {
			r.p1 = append(r.p1, m.State.ProbExcited(q))
		}
	}
	return r
}

// runShots runs the program through the sweep engine's shot-shard
// runner (expt.RunShots) and returns the merged engine stats and one
// report per shard, in shard order. The runner pools its machines and
// reuses them for later shards, so each report is copied inside
// finishShard while the shard's machine is still in hand.
func runShots(cfg core.Config, prog *isa.Program, shots int, eng expt.Engine) (replay.Stats, []shardReport, error) {
	n := expt.ShotShardCount(shots)
	reports := make([]shardReport, n)
	stats, err := expt.RunShots(context.Background(), cfg, prog, shots, eng,
		func(k int, m *core.Machine, _ replay.Stats) error {
			reports[k] = reportOf(m, k == n-1)
			return nil
		})
	return stats, reports, err
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
