package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"quma/internal/asm"
	"quma/internal/expt"
	"quma/internal/replay"
)

// Workload sizes.
const (
	setupReps = 15    // setups per run; setup_s is their median
	rbRounds  = 400   // rb_sweep shots per sequence
	rbTrials  = 4     // rb_sweep sequences per length
	repShots  = 32768 // repcode_lanes shots per experiment (128 shards)
	repLanes  = 8     // repcode_lanes BatchLanes
	digestOps = 64    // experiments (jobs per client) the printed digest covers
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its settings, the metrics it reports, and
// its correctness ledger.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	buildDir string // persistent outputs: spans
	workDir  string // scratch directory of this run, removed at exit
	out      io.Writer

	job       jobTemplate // the workload's experiment as a service request
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// problem records a correctness failure.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.out, "FAIL", msg)
}

// set records a metric. A non-finite value is a correctness failure.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problem("metric %s is %v", name, v)
		v = -1
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// e2eMetrics are the metrics of an untraced run; layerMetrics those of a
// traced run.
var (
	e2eMetrics   = []string{"setup_s", "shots_per_cpu_s", "op_cpu_p50_ms", "op_cpu_p95_ms", "rss_mb"}
	layerMetrics = []string{
		"replay.compiled_shot_ns", "replay.interp_shot_ns", "replay.lead_us", "replay.first_compile_us",
		"replay.batch_lane_shot_ns", "replay.batch_speedup",
		"expt.replayed_ratio", "expt.sweep_speedup",
		"core.new_us", "core.reset_us", "core.full_shot_us",
		"core.ops_per_shot.idle", "core.ops_per_shot.pulse", "core.ops_per_shot.gate2", "core.ops_per_shot.measure",
		"exec.controller_us", "microcode.expand_ns", "timing.drain_ns_per_event", "awg.trigger_ns", "readout.sample_ns",
		"qphys.traj_apply1_ns", "qphys.traj_channel_ns", "qphys.traj_kraus_ns", "qphys.density_kraus_ns", "qphys.rng_draw_ns",
		"service.submit_ms", "service.hit_ms", "service.queue_wait_ms", "service.execute_ms", "service.result_ms",
		"service.hit_ratio", "service.refused", "service.execute_inproc_ms",
		"journal.append_us", "asm.assemble_us", "fit.rb_us",
	}
)

// checkComplete flags a run that did not report exactly its metric set.
func (b *bench) checkComplete() {
	want := e2eMetrics
	if b.trace {
		want = layerMetrics
	}
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			b.problem("metric %s was not measured", name)
		}
	}
	if len(b.metrics) != len(want) {
		b.problem("reported %d metrics, want %d", len(b.metrics), len(want))
	}
}

func (b *bench) result() result {
	return result{Correct: b.failed == 0 && len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}

// window returns a share of the run's measuring time.
func (b *bench) window(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// loopStats summarizes one measuring window of a workload.
type loopStats struct {
	lat     []float64 // wall ms per completed operation
	cpu     []float64 // process CPU ms per completed operation
	opShots []int64   // simulated shots of each operation
	shots   int64     // simulated shots executed
	elapsed time.Duration
	steal   float64   // share of the machine's CPU time the hypervisor stole
	rss     []float64 // MiB resident in this process after each operation
}

// The end-to-end throughput and latency metrics are measured in process
// CPU time, not wall time. On a shared virtual machine the hypervisor
// takes the CPUs away for stretches of a run (steal), which stretched
// wall time by up to ~1.7x between runs of one program; the kernel does
// not count stolen time as the process's CPU time. The wall-time figures
// are printed beside them.
//
// Throughput is the median over e2eBlocks consecutive blocks of a
// window's operations, each block of equal operation count, so a burst of
// contention on the shared core that slows fewer than half of the blocks
// does not move it. The latency percentiles are taken over the whole
// window.
const e2eBlocks = 12

// blockRates cuts a window's operations, of cost[i] ms and opShots[i]
// shots each, into blocks and returns each block's shots per second of
// cost, in run order.
func blockRates(cost []float64, opShots []int64) []float64 {
	n := len(cost)
	nb := min(e2eBlocks, n)
	rates := make([]float64, nb)
	for i := range rates {
		var secs float64
		var shots int64
		for k := i * n / nb; k < (i+1)*n/nb; k++ {
			secs += cost[k] / 1e3
			shots += opShots[k]
		}
		rates[i] = float64(shots) / secs
	}
	return rates
}

// overheadRounds is how many untraced/traced window pairs a traced run
// alternates, so that warm-up and drift fall on both sides alike.
const overheadRounds = 4

// merge appends window m to window l.
func (l loopStats) merge(m loopStats) loopStats {
	steal := (l.steal*l.elapsed.Seconds() + m.steal*m.elapsed.Seconds()) / (l.elapsed + m.elapsed).Seconds()
	return loopStats{
		lat:     append(l.lat, m.lat...),
		cpu:     append(l.cpu, m.cpu...),
		opShots: append(l.opShots, m.opShots...),
		shots:   l.shots + m.shots,
		elapsed: l.elapsed + m.elapsed,
		steal:   steal,
		rss:     append(l.rss, m.rss...),
	}
}

// reportE2E records and prints the end-to-end metrics of a window.
func (b *bench) reportE2E(setups []float64, ls loopStats) error {
	peak, err := rssMiB(0, vmHWM)
	if err != nil {
		return err
	}
	rates := blockRates(ls.cpu, ls.opShots)
	b.set("setup_s", "s", median(setups))
	b.set("shots_per_cpu_s", "shots/s", median(rates))
	b.set("op_cpu_p50_ms", "ms", median(ls.cpu))
	b.set("op_cpu_p95_ms", "ms", quantile(ls.cpu, 0.95))
	b.set("rss_mb", "MiB", median(ls.rss))
	n := len(ls.lat)
	if n < minSamplesP95 {
		fmt.Fprintf(b.out, "note: %d samples leave %d beyond p95 (want >= %d)\n", n, beyond(n, 0.95), minBeyond)
	}
	secs := ls.elapsed.Seconds()
	fmt.Fprintf(b.out, "blocks cpu shots_per_s=%.0f wall shots_per_s=%.0f\n", rates, blockRates(ls.lat, ls.opShots))
	fmt.Fprintf(b.out, "setups cpu_s=%.4f\n", setups)
	fmt.Fprintf(b.out, "e2e workload=%s cpu: experiment_p50_ms=%.3f experiment_p95_ms=%.3f shots_per_s=%.0f (median of %d blocks); samples=%d beyond_p95=%d; wall: experiment_p50_ms=%.3f experiment_p95_ms=%.3f experiments_per_s=%.2f shots_per_s=%.0f host_steal=%.1f%%; setup_s=%.4f (cpu, median of %d) rss_mb=%.1f peak_rss_mb=%.1f error_rate=%.4f\n",
		b.workload, median(ls.cpu), quantile(ls.cpu, 0.95), median(rates), len(rates), n, beyond(n, 0.95),
		median(ls.lat), quantile(ls.lat, 0.95), float64(n)/secs, float64(ls.shots)/secs, 100*ls.steal,
		median(setups), len(setups), median(ls.rss), peak, float64(b.failed)/float64(max(b.attempted, 1)))
	return nil
}

// outcome is what one in-process experiment produced: when the Env call
// started and returned and the CPU time it took, its shot count, the
// canonical bytes of its measured fields (everything except engine
// telemetry), and any violated physics sanity bound.
type outcome struct {
	start, end time.Time
	cpu        time.Duration // process CPU time of the Env call
	shots      int
	measured   []byte
	physics    error
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// inprocWorkload is a workload that calls expt.Env in-process.
type inprocWorkload struct {
	call string // the timed entry point, also the span name
	// run executes experiment k (k < 0: warm-up work of setup repetition
	// -k-1). ref selects the reference path: replay off, one worker, no
	// lanes.
	run        func(ctx context.Context, env *expt.Env, k int, ref bool) (outcome, error)
	refSamples int
	unit       unitWork
	job        jobTemplate
	// sanity runs extra physics checks once per run.
	sanity func(ctx context.Context, b *bench)
}

// rbParams are rb_sweep's RB parameters. The sweep runs on one worker:
// with two, a host that steals CPU time made the workers wait on each
// other, and that waiting raised the CPU time per experiment (p95 by up
// to a quarter) as well as the wall time. One worker leaves the
// experiment's CPU time where it is on a quiet host; the traced run's
// expt.sweep_speedup measures the second worker.
func rbParams(seqSeed int64) expt.RBParams {
	p := expt.DefaultRBParams()
	p.Rounds, p.Trials, p.Seed = rbRounds, rbTrials, nonNeg(seqSeed)|1
	p.Workers, p.ShotWorkers = 1, 1
	return p
}

// rbSweep: Env.RunRB on the trajectory backend, lengths 1..128, one
// worker, a fresh machine seed per experiment, one Clifford sequence set
// per run.
func rbSweep(seed int64) *inprocWorkload {
	seqSeed := seedFor(seed, domainRBSequence, 0)
	p := rbParams(seqSeed)
	return &inprocWorkload{
		call:       "expt.Env.RunRB",
		refSamples: 1,
		unit:       unitWork{name: "rb_m128", src: rbUnitSource(), qubits: 1, replayShots: 400, jobShots: rbRounds, shotWorkers: 1, lanes: 1},
		job:        rbJob(seqSeed),
		run: func(ctx context.Context, env *expt.Env, k int, ref bool) (outcome, error) {
			q := p
			if ref {
				q.Replay, q.Workers, q.ShotWorkers = replay.ModeOff, 1, 1
			}
			t0, c0 := time.Now(), cpuTime()
			res, err := env.RunRB(ctx, trajectoryConfig(1, opSeed(seed, k)), q)
			t1, c1 := time.Now(), cpuTime()
			if err != nil {
				return outcome{}, err
			}
			measured, err := json.Marshal(struct {
				Survival []float64
				PerTrial [][]float64
				Fit      any
			}{res.Survival, res.PerTrial, res.Fit})
			if err != nil {
				return outcome{}, err
			}
			return outcome{start: t0, end: t1, cpu: c1 - c0, shots: len(q.Lengths) * q.Trials * q.Rounds, measured: measured, physics: rbSane(res)}, nil
		},
	}
}

// rbSane checks that the RB decay fit converged to a physical decay.
func rbSane(res *expt.RBResult) error {
	f := res.Fit
	s := res.Survival
	switch {
	case !(f.P > 0 && f.P < 1):
		return fmt.Errorf("RB fit p=%v outside (0,1)", f.P)
	case !(s[0] > s[len(s)-1]):
		return fmt.Errorf("RB survival does not decay: %v", s)
	}
	return nil
}

// repCodeLanes: Env.RunProgram of the d=3 syndromes-only repetition code
// on the trajectory backend, 32768 shots on 8 lanes and 2 shot workers, a
// fresh machine seed per experiment.
func repCodeLanes(seed int64) *inprocWorkload {
	src := repCodeSource()
	return &inprocWorkload{
		call:       "expt.Env.RunProgram",
		refSamples: 2,
		unit:       unitWork{name: "repcode_d3", src: src, qubits: 5, replayShots: 4000, jobShots: repShots, shotWorkers: 2, lanes: repLanes},
		job:        repCodeJob,
		run: func(ctx context.Context, env *expt.Env, k int, ref bool) (outcome, error) {
			p := expt.ProgramParams{Source: src, Shots: repShots, ShotWorkers: 2, BatchLanes: repLanes}
			if ref {
				p.Replay, p.ShotWorkers, p.BatchLanes = replay.ModeOff, 1, 0
			}
			t0, c0 := time.Now(), cpuTime()
			res, err := env.RunProgram(ctx, trajectoryConfig(5, opSeed(seed, k)), p)
			t1, c1 := time.Now(), cpuTime()
			if err != nil {
				return outcome{}, err
			}
			measured, err := json.Marshal(struct {
				Shots, MDPerShot int
				MDVaries         bool
				Qubits, Ones     []int
				StreamHash       uint64
			}{res.Shots, res.MDPerShot, res.MDVaries, res.Qubits, res.Ones, res.StreamHash})
			if err != nil {
				return outcome{}, err
			}
			var physics error
			if res.MDPerShot != 5 || res.MDVaries {
				physics = fmt.Errorf("repcode shot measured %d qubits (varies=%v), want 5", res.MDPerShot, res.MDVaries)
			}
			return outcome{start: t0, end: t1, cpu: c1 - c0, shots: res.Shots, measured: measured, physics: physics}, nil
		},
		sanity: func(ctx context.Context, b *bench) {
			p := expt.DefaultRepCodeParams()
			p.Rounds, p.Workers, p.ShotWorkers = 2000, 2, 1
			res, err := expt.NewEnv().RunRepCode(ctx, trajectoryConfig(5, seedFor(b.seed, domainSanity, 0)), p)
			if err != nil {
				b.problem("repcode sanity run: %v", err)
				return
			}
			fmt.Fprintf(b.out, "sanity repcode d=3 rounds=%d bare=%.4f syndromes_only=%.4f corrected=%.4f\n", p.Rounds, res.Unprotected, res.Uncorrected, res.Protected)
			if !(res.Protected < res.Unprotected) {
				b.problem("repcode corrected error %.4f is not below bare error %.4f", res.Protected, res.Unprotected)
			}
		},
	}
}

// opSeed is the machine seed of experiment k.
func opSeed(seed int64, k int) int64 {
	if k < 0 {
		return seedFor(seed, domainSetup, -k)
	}
	return seedFor(seed, domainOpSeed, k)
}

// inprocRun holds what an in-process run has produced so far.
type inprocRun struct {
	w        *inprocWorkload
	env      *expt.Env
	next     int            // index of the next experiment
	measured map[int][]byte // measured bytes of the first digestOps experiments
}

// loop runs experiments back to back for d, one at a time, timing each
// call. With a tracer, each call is a root span.
func (r *inprocRun) loop(ctx context.Context, b *bench, d time.Duration, tr *tracer) loopStats {
	var ls loopStats
	start, steal := time.Now(), startSteal()
	for time.Since(start) < d {
		k := r.next
		r.next++
		b.attempted++
		out, err := r.w.run(ctx, r.env, k, false)
		switch {
		case err != nil:
			b.failed++
			fmt.Fprintf(b.out, "FAIL experiment %d: %v\n", k, err)
			continue
		case out.physics != nil:
			b.failed++
			fmt.Fprintf(b.out, "FAIL experiment %d: %v\n", k, out.physics)
		}
		tr.add(r.w.call, 0, out.start, out.end)
		ls.lat = append(ls.lat, ms(out.end.Sub(out.start)))
		ls.cpu = append(ls.cpu, ms(out.cpu))
		ls.opShots = append(ls.opShots, int64(out.shots))
		ls.shots += int64(out.shots)
		if mb, err := rssMiB(0, vmRSS); err == nil {
			ls.rss = append(ls.rss, mb)
		}
		if k < digestOps { // the digest and the reference sample need no more
			r.measured[k] = out.measured
		}
	}
	ls.elapsed, ls.steal = time.Since(start), steal.share()
	return ls
}

// gate is the correctness gate of an in-process run: print the digest of
// the first experiments, re-run a seed-chosen sample on the reference
// path and compare the measured fields byte for byte, and run the
// workload's physics checks.
func (r *inprocRun) gate(ctx context.Context, b *bench) {
	h := sha256.New()
	n := 0
	for k := 0; k < min(r.next, digestOps); k++ {
		if m, ok := r.measured[k]; ok {
			h.Write(m)
			n++
		}
	}
	fmt.Fprintf(b.out, "digest workload=%s seed=%d experiments=0..%d sha256=%s\n", b.workload, b.seed, n-1, hex.EncodeToString(h.Sum(nil))[:16])

	rng := rand.New(rand.NewSource(seedFor(b.seed, domainSample, 0)))
	for s := 0; s < r.w.refSamples; s++ {
		k := rng.Intn(min(max(r.next, 1), digestOps))
		want, ok := r.measured[k]
		if !ok {
			continue
		}
		ref, err := r.w.run(ctx, expt.NewEnv(), k, true)
		if err != nil {
			b.failed++
			b.problem("reference run of experiment %d: %v", k, err)
			continue
		}
		match := string(ref.measured) == string(want)
		fmt.Fprintf(b.out, "reference experiment=%d digest=%s reference_digest=%s match=%v\n", k, digest(want), digest(ref.measured), match)
		if !match {
			b.failed++
			b.problem("experiment %d differs from the reference path", k)
		}
	}
	if r.w.sanity != nil {
		r.w.sanity(ctx, b)
	}
}

// runInproc runs an in-process workload: setup, the measuring window,
// and the correctness gate; in a traced run also a traced window and the
// layer measurements.
func runInproc(ctx context.Context, b *bench, w *inprocWorkload) error {
	b.job = w.job
	r := &inprocRun{w: w, measured: make(map[int][]byte)}
	// setup builds a fresh Env, runs set-up repetition i's warm-up
	// experiment on it, makes it the Env the loop runs on, and returns the
	// CPU seconds that took.
	setup := func(i int) (float64, error) {
		c0 := cpuTime()
		env := expt.NewEnv()
		if _, err := w.run(ctx, env, -1-i, false); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
		r.env = env
		return (cpuTime() - c0).Seconds(), nil
	}
	first, err := setup(0)
	if err != nil {
		return err
	}
	ops := b.checkSimStats(w.unit)
	if !b.trace {
		// The set-ups are spread over the run, one before each of
		// setupReps equal slices of the measuring window, so that their
		// median and the loop's figures see the same host.
		setups := []float64{first}
		var ls loopStats
		for i := 0; i < setupReps; i++ {
			if i > 0 {
				s, err := setup(i)
				if err != nil {
					return err
				}
				setups = append(setups, s)
			}
			ls = ls.merge(r.loop(ctx, b, b.window(1.0/setupReps), nil))
		}
		if err := b.reportE2E(setups, ls); err != nil {
			return err
		}
		r.gate(ctx, b)
		return nil
	}

	// Traced run: alternating untraced and traced windows of the same loop
	// give the tracing overhead; then the layers are driven one by one.
	tr := newTracer()
	var plain, traced loopStats
	for i := 0; i < overheadRounds; i++ {
		plain = plain.merge(r.loop(ctx, b, b.window(0.25/overheadRounds), nil))
		traced = traced.merge(r.loop(ctx, b, b.window(0.25/overheadRounds), tr))
	}
	printOverhead(b, plain, traced)
	prog, err := asm.Assemble(w.unit.src)
	if err != nil {
		return err
	}
	l := &layerRun{b: b, tr: tr, u: w.unit, prog: prog, seed: seedFor(b.seed, domainSanity, 3), ops: ops}
	l.root = tr.begin("layers", 0)
	if err := l.measureLayers(ctx); err != nil {
		return err
	}
	jobs, refused, err := inprocService(ctx, b, tr, b.window(0.2))
	if err != nil {
		return fmt.Errorf("service layer: %w", err)
	}
	if err := l.serviceMetrics(ctx, jobs, refused); err != nil {
		return fmt.Errorf("service layer: %w", err)
	}
	tr.end(l.root)
	r.gate(ctx, b)
	return finishTrace(b, tr)
}

// printOverhead prints the tracing overhead: the traced window's
// end-to-end numbers against the untraced window's, in CPU time like the
// end-to-end metrics.
func printOverhead(b *bench, plain, traced loopStats) {
	p50, t50 := median(plain.cpu), median(traced.cpu)
	pr, tr := median(blockRates(plain.cpu, plain.opShots)), median(blockRates(traced.cpu, traced.opShots))
	fmt.Fprintf(b.out, "tracing overhead: op_cpu_p50_ms untraced=%.3f traced=%.3f (%+.2f%%), shots_per_cpu_s untraced=%.0f traced=%.0f (%+.2f%%), samples %d/%d\n",
		p50, t50, 100*(t50-p50)/p50, pr, tr, 100*(tr-pr)/pr, len(plain.cpu), len(traced.cpu))
}

// finishTrace writes the spans and prints each layer's self time.
func finishTrace(b *bench, tr *tracer) error {
	spans := tr.snapshot()
	path := spansPath(b)
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(spans), path)
	printSelfTimes(b.out, selfTimes(spans))
	return nil
}
