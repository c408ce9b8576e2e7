package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/clock"
	"quma/internal/core"
	"quma/internal/exec"
	"quma/internal/expt"
	"quma/internal/fit"
	"quma/internal/isa"
	"quma/internal/journal"
	"quma/internal/microcode"
	"quma/internal/qphys"
	"quma/internal/readout"
	"quma/internal/replay"
	"quma/internal/service"
)

// unitWork is one unit of a workload's work, re-driven through the lower
// layers' public functions in the traced run: the workload's per-shot
// program on its machine shape, with the shot count and scheduling knobs
// the workload uses.
type unitWork struct {
	name        string
	src         string
	qubits      int
	replayShots int // shots per replay.Run when timing the per-shot loop
	jobShots    int // shots per experiment in the workload
	shotWorkers int
	lanes       int
}

func (u unitWork) config(seed int64) core.Config { return trajectoryConfig(u.qubits, seed) }

// batchLanes is the lane count of the replay.RunBatch measurement.
const batchLanes = 8

// layerRun measures the per-layer metrics of one traced run. Every timed
// batch of calls is also recorded as a span under the section's root.
type layerRun struct {
	b    *bench
	tr   *tracer
	root int
	u    unitWork
	prog *isa.Program
	seed int64
	ops  opCounts
}

// perCall times reps batches of n calls and returns ns per call, one
// sample per batch.
func (l *layerRun) perCall(name string, reps, n int, fn func(n int)) []float64 {
	out := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn(n)
		t1 := time.Now()
		l.tr.add(name, l.root, t0, t1)
		out = append(out, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	return out
}

// timed runs fn once as a span and returns its duration.
func (l *layerRun) timed(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	l.tr.add(name, l.root, t0, t1)
	return t1.Sub(t0), err
}

func nsOf(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// measureLayers runs every in-process layer measurement and records the
// per-layer metrics on the bench. The service metrics come separately
// (serviceMetrics), from the in-process service window.
func (l *layerRun) measureLayers(ctx context.Context) error {
	steps := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"replay", l.replayLayer},
		{"expt", l.exptLayer},
		{"core", l.coreLayer},
		{"pipeline", l.pipelineLayers},
		{"qphys", l.qphysLayer},
		{"journal", l.journalLayer},
		{"asm", l.asmLayer},
	}
	for _, s := range steps {
		if err := s.fn(ctx); err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	return nil
}

// replayLayer times the replay engine: the per-shot cost of compiled and
// interpreted replay, the lead shots, the first compilation, and the
// lockstep batch.
func (l *layerRun) replayLayer(ctx context.Context) error {
	m, err := core.New(l.u.config(l.seed))
	if err != nil {
		return err
	}
	n := l.u.replayShots
	run := func(mode replay.Mode, shots int) (time.Duration, error) {
		m.ResetState(l.seed)
		return l.timed("replay.Run/"+string(mode), func() error {
			st, err := replay.Run(ctx, m, l.prog, replay.Options{Shots: shots, Mode: mode})
			if err == nil && shots > 3 && st.Replayed != shots-3 {
				err = fmt.Errorf("%s replay engaged on %d of %d shots (%s)", mode, st.Replayed, shots, st.Reason)
			}
			return err
		})
	}
	const reps = 15
	var compiled, interp, lead []float64
	for r := -1; r < reps; r++ { // r = -1 warms both modes
		c3, err := run(replay.ModeCompiled, 3)
		if err != nil {
			return err
		}
		cN, err := run(replay.ModeCompiled, n)
		if err != nil {
			return err
		}
		i3, err := run(replay.ModeInterp, 3)
		if err != nil {
			return err
		}
		iN, err := run(replay.ModeInterp, n)
		if err != nil {
			return err
		}
		if r >= 0 {
			compiled = append(compiled, nsOf(cN-c3)/float64(n-3))
			interp = append(interp, nsOf(iN-i3)/float64(n-3))
			lead = append(lead, nsOf(c3)/1e3)
		}
	}
	l.b.set("replay.compiled_shot_ns", "ns", median(compiled))
	l.b.set("replay.interp_shot_ns", "ns", median(interp))
	l.b.set("replay.lead_us", "us", median(lead))
	fmt.Fprintf(l.b.out, "layer replay program=%s shots=%d compiled_shot_ns=%.1f [q1 %.1f, q3 %.1f] interp_shot_ns=%.1f [q1 %.1f, q3 %.1f] compiled/interp=%.3f samples=%d\n",
		l.u.name, n, median(compiled), quantile(compiled, 0.25), quantile(compiled, 0.75),
		median(interp), quantile(interp, 0.25), quantile(interp, 0.75), median(compiled)/median(interp), reps)

	var first []float64
	for r := 0; r < 10; r++ {
		fm, err := core.New(l.u.config(l.seed))
		if err != nil {
			return err
		}
		tf, err := l.timed("replay.Run/first", func() error {
			_, err := replay.Run(ctx, fm, l.prog, replay.Options{Shots: 4, Mode: replay.ModeCompiled})
			return err
		})
		if err != nil {
			return err
		}
		fm.ResetState(l.seed)
		tm, err := l.timed("replay.Run/memoized", func() error {
			_, err := replay.Run(ctx, fm, l.prog, replay.Options{Shots: 4, Mode: replay.ModeCompiled})
			return err
		})
		if err != nil {
			return err
		}
		first = append(first, nsOf(tf-tm)/1e3)
	}
	l.b.set("replay.first_compile_us", "us", median(first))

	lanes := make([]replay.BatchLane, batchLanes)
	for k := range lanes {
		mk, err := core.New(l.u.config(expt.DeriveSeed(l.seed, k)))
		if err != nil {
			return err
		}
		lanes[k] = replay.BatchLane{M: mk, BaseShot: k * n}
	}
	runBatch := func(shots int) (time.Duration, error) {
		for k := range lanes {
			lanes[k].M.ResetState(expt.DeriveSeed(l.seed, k))
		}
		return l.timed("replay.RunBatch", func() error {
			sts, err := replay.RunBatch(ctx, l.prog, lanes, shots, replay.ModeCompiled)
			if err == nil && shots > 3 && !sts[0].Compiled {
				err = fmt.Errorf("batched replay did not engage (%s)", sts[0].Reason)
			}
			return err
		})
	}
	var batch []float64
	for r := -1; r < 8; r++ {
		b3, err := runBatch(3)
		if err != nil {
			return err
		}
		bN, err := runBatch(n)
		if err != nil {
			return err
		}
		if r >= 0 {
			batch = append(batch, nsOf(bN-b3)/float64(batchLanes*(n-3)))
		}
	}
	l.b.set("replay.batch_lane_shot_ns", "ns", median(batch))
	l.b.set("replay.batch_speedup", "ratio", median(compiled)/median(batch))
	if l.u.name == "rb_m128" {
		fmt.Fprintf(l.b.out, "roadmap trajectory RB m=128: compiled %.1f ns/shot (IQR %.1f-%.1f) vs interp %.1f ns/shot (IQR %.1f-%.1f): compiled is %.3fx interp's time, %d paired samples\n",
			median(compiled), quantile(compiled, 0.25), quantile(compiled, 0.75),
			median(interp), quantile(interp, 0.25), quantile(interp, 0.75), median(compiled)/median(interp), reps)
	}
	return nil
}

// exptLayer measures the experiment layer: how many shots replay and
// the sweep's gain from a second worker.
func (l *layerRun) exptLayer(ctx context.Context) error {
	env := expt.NewEnv()
	var res *expt.ProgramResult
	_, err := l.timed("expt.Env.RunProgram", func() error {
		var err error
		res, err = env.RunProgram(ctx, l.u.config(l.seed), expt.ProgramParams{
			Source: l.u.src, Shots: l.u.jobShots, ShotWorkers: l.u.shotWorkers, BatchLanes: l.u.lanes,
		})
		return err
	})
	if err != nil {
		return err
	}
	l.b.set("expt.replayed_ratio", "ratio", float64(res.Replayed)/float64(res.Shots))

	p := rbParams(seedFor(l.b.seed, domainRBSequence, 0))
	cfg := trajectoryConfig(1, l.seed)
	var rb *expt.RBResult
	runRB := func(workers int) (time.Duration, error) {
		q := p
		q.Workers = workers
		return l.timed(fmt.Sprintf("expt.Env.RunRB/workers=%d", workers), func() error {
			var err error
			rb, err = env.RunRB(ctx, cfg, q)
			return err
		})
	}
	var ratio []float64
	for r := -1; r < 3; r++ {
		t1, err := runRB(1)
		if err != nil {
			return err
		}
		t2, err := runRB(2)
		if err != nil {
			return err
		}
		if r >= 0 {
			ratio = append(ratio, nsOf(t1)/nsOf(t2))
		}
	}
	l.b.set("expt.sweep_speedup", "ratio", median(ratio))

	ms := make([]float64, len(rb.Params.Lengths))
	for i, m := range rb.Params.Lengths {
		ms[i] = float64(m)
	}
	var fitErr error
	l.b.set("fit.rb_us", "us", median(l.perCall("fit.FitRBDecay", 20, 50, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := fit.FitRBDecay(ms, rb.Survival); err != nil {
				fitErr = err
			}
		}
	}))/1e3)
	return fitErr
}

// coreLayer times machine construction, reset and one full-pipeline
// shot, and counts the operations of a shot with a core.Probe.
func (l *layerRun) coreLayer(ctx context.Context) error {
	cfg := l.u.config(l.seed)
	var newErr error
	l.b.set("core.new_us", "us", median(l.perCall("core.New", 20, 1, func(int) {
		if _, err := core.New(cfg); err != nil {
			newErr = err
		}
	}))/1e3)
	if newErr != nil {
		return newErr
	}
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	l.b.set("core.reset_us", "us", median(l.perCall("core.Machine.ResetState", 20, 50, func(n int) {
		for i := 0; i < n; i++ {
			m.ResetState(l.seed)
		}
	}))/1e3)
	m.ResetState(l.seed)
	if err := m.RunProgram(l.prog); err != nil { // shot 0 carries the cold-start transient
		return err
	}
	var runErr error
	l.b.set("core.full_shot_us", "us", median(l.perCall("core.Machine.RunProgram", 20, 5, func(n int) {
		for i := 0; i < n; i++ {
			if err := m.RunProgram(l.prog); err != nil {
				runErr = err
			}
		}
	}))/1e3)
	l.b.set("core.ops_per_shot.idle", "count", float64(l.ops.Idle))
	l.b.set("core.ops_per_shot.pulse", "count", float64(l.ops.Pulse))
	l.b.set("core.ops_per_shot.gate2", "count", float64(l.ops.Gate2))
	l.b.set("core.ops_per_shot.measure", "count", float64(l.ops.Measure))
	return runErr
}

// pipelineLayers times the classical layers of one shot outside the
// machine: the execution controller on a bare QMB, microcode expansion,
// timing-queue draining, CTPG triggering and readout sampling.
func (l *layerRun) pipelineLayers(ctx context.Context) error {
	cs := microcode.StandardControlStore()
	var err error
	l.b.set("exec.controller_us", "us", median(l.perCall("exec.Controller", 20, 20, func(n int) {
		for i := 0; i < n; i++ {
			c := exec.NewController(cs, exec.NewQMB(nil, nil, nil))
			if e := c.Load(l.prog); e != nil {
				err = e
			} else if e := c.Run(0); e != nil {
				err = e
			}
		}
	}))/1e3)
	if err != nil {
		return err
	}

	var quantum []isa.Instruction
	for _, in := range l.prog.Instrs {
		// Register-timed waits are resolved by the controller, not expanded.
		if in.Op.IsQuantum() && in.Op != isa.OpQNopReg && in.Op != isa.OpWaitReg {
			quantum = append(quantum, in)
		}
	}
	l.b.set("microcode.expand_ns", "ns", median(l.perCall("microcode.ControlStore.Expand", 20, 20, func(n int) {
		for i := 0; i < n; i++ {
			for _, in := range quantum {
				if _, e := cs.Expand(in); e != nil {
					err = e
				}
			}
		}
	}))/float64(len(quantum)))
	if err != nil {
		return err
	}

	var drain []float64
	for r := 0; r < 30; r++ {
		qmb := exec.NewQMB(nil, nil, nil)
		for _, in := range quantum {
			mis, e := cs.Expand(in)
			if e != nil {
				return e
			}
			for _, mi := range mis {
				if e := qmb.Submit(mi); e != nil {
					return e
				}
			}
		}
		events := qmb.TC.PendingEvents()
		qmb.TC.Start()
		d, e := l.timed("timing.Controller.Drain", func() error {
			_, e := qmb.TC.Drain()
			return e
		})
		if e != nil {
			return e
		}
		drain = append(drain, nsOf(d)/float64(events))
	}
	l.b.set("timing.drain_ns_per_event", "ns", median(drain))

	ctpg := awg.NewCTPG()
	if err := ctpg.UploadStandardLibrary(0); err != nil {
		return err
	}
	cws := ctpg.Codewords()
	l.b.set("awg.trigger_ns", "ns", median(l.perCall("awg.CTPG.Trigger", 20, 2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, e := ctpg.Trigger(cws[i%len(cws)], clock.Cycle(100*i)); e != nil {
				err = e
			}
		}
		ctpg.ResetPlaybacks()
	})))
	if err != nil {
		return err
	}

	mdu := readout.Calibrate(readout.DefaultParams())
	rng := rand.New(rand.NewSource(l.seed))
	l.b.set("readout.sample_ns", "ns", median(l.perCall("readout.MDU.SampleMeasure", 20, 5000, func(n int) {
		for i := 0; i < n; i++ {
			mdu.SampleMeasure(i&1, rng)
		}
	})))
	return nil
}

// idleDt is the idle interval of the channel kernels: one Wait 4 (20 ns),
// the gap between consecutive pulses of the workloads' programs.
const idleDt = 20e-9

// qphysLayer times the state kernels at the workload's qubit count and
// the machine PRNG's variate.
func (l *layerRun) qphysLayer(ctx context.Context) error {
	nq := l.u.qubits
	rng := rand.New(rand.NewSource(l.seed))
	traj := qphys.NewTrajectory(nq, rng)
	u := qphys.REquator(0.3, math.Pi/2)
	kraus := qphys.DecoherenceChannel(idleDt, qphys.DefaultQubitParams())
	ct := qphys.NewChannelTable(kraus)
	const reps, n = 20, 2000
	apply1 := median(l.perCall("qphys.Trajectory.Apply1", reps, n, func(n int) {
		for i := 0; i < n; i++ {
			traj.Apply1(u, i%nq)
		}
	}))
	channel := median(l.perCall("qphys.Trajectory.ApplyChannel", reps, n, func(n int) {
		for i := 0; i < n; i++ {
			traj.ApplyChannel(ct, i%nq)
		}
	}))
	l.b.set("qphys.traj_apply1_ns", "ns", apply1)
	l.b.set("qphys.traj_channel_ns", "ns", channel)
	l.b.set("qphys.traj_kraus_ns", "ns", median(l.perCall("qphys.Trajectory.ApplyKraus1", reps, n, func(n int) {
		for i := 0; i < n; i++ {
			traj.ApplyKraus1(kraus, i%nq)
		}
	})))
	dens := qphys.NewDensity(nq)
	l.b.set("qphys.density_kraus_ns", "ns", median(l.perCall("qphys.Density.ApplyKraus1", reps, n/10, func(n int) {
		for i := 0; i < n; i++ {
			dens.ApplyKraus1(kraus, i%nq)
		}
	})))
	var sink float64
	rngNs := median(l.perCall("rand.Rand.Float64", reps, 20*n, func(n int) {
		for i := 0; i < n; i++ {
			sink += rng.Float64()
		}
	}))
	l.b.set("qphys.rng_draw_ns", "ns", rngNs)
	if sink < 0 {
		return fmt.Errorf("impossible negative variate sum")
	}

	if l.u.qubits < 2 {
		return nil
	}
	return l.batchSplit(rngNs)
}

// batchSplit answers how a batched d=3 shot's time splits between rng
// draws, span kernels and orchestration (report only). It records one
// steady-state shot's operations, lowers them to a carry-free
// qphys.SchedOp schedule, and times qphys.TrajBatch.RunScheduleBatch on
// batchLanes lanes: that is the span kernels plus their in-kernel draws,
// with none of the replay engine around them. The rest of the replayed
// lane-shot is orchestration and the measurement chain.
func (l *layerRun) batchSplit(rngNs float64) error {
	m, err := core.New(l.u.config(l.seed))
	if err != nil {
		return err
	}
	if err := m.RunProgram(l.prog); err != nil {
		return err
	}
	var rec schedRecorder
	m.SetProbe(&rec)
	err = m.RunProgram(l.prog)
	m.SetProbe(nil)
	if err != nil {
		return err
	}
	trajs := make([]*qphys.Trajectory, batchLanes)
	for k := range trajs {
		trajs[k] = qphys.NewTrajectory(l.u.qubits, rand.New(rand.NewSource(expt.DeriveSeed(l.seed, k))))
	}
	tb := qphys.NewTrajBatch(trajs)
	measure := func(lane, q, outcome int) {}
	const shots = 200
	span := median(l.perCall("qphys.TrajBatch.RunScheduleBatch", 15, shots, func(n int) {
		for i := 0; i < n; i++ {
			tb.RunScheduleBatch(rec.ops, measure)
		}
	})) / batchLanes
	draws := l.ops.Idle + 2*l.ops.Measure
	rngShot := float64(draws) * rngNs
	kernels := span - float64(rec.channels+l.ops.Measure)*rngNs
	lane := l.b.metrics["replay.batch_lane_shot_ns"].Value
	fmt.Fprintf(l.b.out, "roadmap d=3 batched shot split (%s, %d lanes, %d ops): %.0f ns per lane-shot; rng %d draws x %.2f ns = %.0f ns (%.0f%%); span kernels at most %.0f ns (%.0f%%: the carry-free schedule pays population passes the compiled one fuses away); orchestration and measurement chain at least %.0f ns\n",
		l.u.name, batchLanes, len(rec.ops), lane, draws, rngNs, rngShot, 100*rngShot/lane, kernels, 100*kernels/lane, max(0, lane-rngShot-kernels))
	return nil
}

// schedRecorder is a core.Probe that lowers one shot's operation stream
// to a carry-free schedule, choosing each op's kernel as the replay
// compiler would.
type schedRecorder struct {
	ops      []qphys.SchedOp
	channels int
}

func (r *schedRecorder) Idle(q int, rz qphys.Matrix, kraus []qphys.Matrix) {
	if rz.N != 0 {
		r.unitary(rz, q)
	}
	switch {
	case len(kraus) > 1:
		r.ops = append(r.ops, qphys.SchedOp{Kind: qphys.SchedChannel, CarryFor: -1, Q: int16(q), Ch: qphys.NewChannelTable(kraus)})
		r.channels++
	case len(kraus) == 1:
		r.unitary(kraus[0], q)
	}
}

func (r *schedRecorder) unitary(u qphys.Matrix, q int) {
	kind := qphys.SchedApply1
	if qphys.RealDiag2(u) {
		kind = qphys.SchedApply1RD
	}
	r.ops = append(r.ops, qphys.SchedOp{Kind: kind, CarryFor: -1, Q: int16(q), U: u})
}

func (r *schedRecorder) Pulse1(u qphys.Matrix, q int) {
	if u.N != 0 {
		r.unitary(u, q)
	}
}

func (r *schedRecorder) Gate2(u qphys.Matrix, qa, qb int) {
	if qphys.IsCZ(u) {
		r.ops = append(r.ops, qphys.SchedOp{Kind: qphys.SchedCZ, PhaseSafe: true, CarryFor: -1, Q: int16(qa), Qb: int16(qb)})
		return
	}
	r.ops = append(r.ops, qphys.SchedOp{Kind: qphys.SchedApply2, CarryFor: -1, Q: int16(qa), Qb: int16(qb), U: u})
}

func (r *schedRecorder) Measured(q, _ int) {
	r.ops = append(r.ops, qphys.SchedOp{Kind: qphys.SchedMeasure, CarryFor: -1, Q: int16(q)})
}

// journalLayer times fsync'd appends of accepted records sized like the
// workload's service request.
func (l *layerRun) journalLayer(ctx context.Context) error {
	dir, err := os.MkdirTemp(l.b.workDir, "journal-layer-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer jr.Close()
	req, err := json.Marshal(l.b.job(l.seed))
	if err != nil {
		return err
	}
	var appendErr error
	i := 0
	l.b.set("journal.append_us", "us", median(l.perCall("journal.Append", 40, 1, func(int) {
		i++
		if err := jr.Append(journal.Accepted(fmt.Sprintf("job-%d", i), "", "hash", req)); err != nil {
			appendErr = err
		}
	}))/1e3)
	return appendErr
}

// asmLayer times assembling the unit program.
func (l *layerRun) asmLayer(ctx context.Context) error {
	var err error
	l.b.set("asm.assemble_us", "us", median(l.perCall("asm.Assemble", 20, 10, func(n int) {
		for i := 0; i < n; i++ {
			if _, e := asm.Assemble(l.u.src); e != nil {
				err = e
			}
		}
	}))/1e3)
	return err
}

// serviceMetrics derives the service-layer metrics from client-side job
// timelines, and times service.Execute of the same requests in-process.
func (l *layerRun) serviceMetrics(ctx context.Context, jobs []servedJob, refused int) error {
	var submit, hit, queue, execute, result []float64
	hits := 0
	for _, j := range jobs {
		t := j.timing
		if t.hit {
			hits++
			hit = append(hit, ms(t.latency()))
			continue
		}
		submit = append(submit, ms(t.posted.Sub(t.start)))
		queue = append(queue, ms(t.running.Sub(t.posted)))
		execute = append(execute, ms(t.done.Sub(t.running)))
		result = append(result, ms(t.end.Sub(t.fetch)))
	}
	l.b.set("service.submit_ms", "ms", median(submit))
	l.b.set("service.hit_ms", "ms", median(hit))
	l.b.set("service.queue_wait_ms", "ms", median(queue))
	l.b.set("service.execute_ms", "ms", median(execute))
	l.b.set("service.result_ms", "ms", median(result))
	l.b.set("service.hit_ratio", "ratio", float64(hits)/float64(len(jobs)))
	l.b.set("service.refused", "count", float64(refused))

	env := expt.NewEnv()
	var inproc []float64
	for r := -1; r < 8 && r < len(jobs); r++ { // r = -1 warms the Env
		reqs := jobs[max(r, 0)].spec.Reqs
		d, err := l.timed("service.Execute", func() error {
			for _, req := range reqs {
				if _, err := service.Execute(ctx, env, req); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if r >= 0 {
			inproc = append(inproc, ms(d))
		}
	}
	l.b.set("service.execute_inproc_ms", "ms", median(inproc))
	return nil
}

// spansPath is where a traced run writes its spans.
func spansPath(b *bench) string {
	return filepath.Join(b.buildDir, "spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
}
