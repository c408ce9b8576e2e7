// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see EXPERIMENTS.md for the mapping), plus ablations for the
// design choices called out in DESIGN.md. Custom metrics report the
// scientific quantity each artifact is about (deviation, bytes, fitted
// times); ns/op reports the simulation cost.
//
// Run with: go test -bench=. -benchmem
package quma

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"quma/internal/aps2"
	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/clock"
	"quma/internal/core"
	"quma/internal/exec"
	"quma/internal/expt"
	"quma/internal/isa"
	"quma/internal/microcode"
	"quma/internal/prng"
	"quma/internal/pulse"
	"quma/internal/qphys"
	"quma/internal/readout"
	"quma/internal/replay"
	"quma/internal/timing"
	"quma/internal/uop"
)

// BenchmarkFig9AllXY regenerates the paper's Figure 9 staircase (E1): 42
// AllXY points averaged over a reduced round count, reporting the RMS
// deviation from the ideal staircase (paper: 0.012 at N=25600).
func BenchmarkFig9AllXY(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		p := expt.DefaultAllXYParams()
		p.Rounds = 50
		res, err := expt.NewEnv().RunAllXY(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		dev = res.Deviation
	}
	b.ReportMetric(dev, "deviation")
}

// BenchmarkTable1LUT measures the codeword-triggered pulse generation
// path (E2): lookup + trigger + playback scheduling for the Table 1
// library.
func BenchmarkTable1LUT(b *testing.B) {
	c := awg.NewCTPG()
	if err := c.UploadStandardLibrary(0); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.MemoryBytes(12)), "LUT-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := awg.Codeword(i % 7)
		if _, err := c.Trigger(cw, clock.Cycle(i*4)); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			c.ResetPlaybacks()
		}
	}
}

// BenchmarkTables2to4QueueFill measures the execution-controller fill
// path of the Tables 2–4 scenario (E3): one AllXY round decoded into the
// queues and drained.
func BenchmarkTables2to4QueueFill(b *testing.B) {
	prog := asm.MustAssemble(`
mov r15, 40000
QNopReg r15
Pulse {q0}, I
Wait 4
Pulse {q0}, I
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qmb := exec.NewQMB(nil, nil, nil)
		ctrl := exec.NewController(microcode.StandardControlStore(), qmb)
		if err := ctrl.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := ctrl.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Decoding measures the multilevel decoding path (E4):
// QIS → QuMIS expansion through the Q control store.
func BenchmarkTable5Decoding(b *testing.B) {
	cs := microcode.StandardControlStore()
	instr := []isa.Instruction{
		{Op: isa.OpApply, QAddr: isa.MaskQ(0), UOp: "X180"},
		{Op: isa.OpApply, QAddr: isa.MaskQ(0), UOp: "Z"},
		{Op: isa.OpApply2, QAddr: isa.MaskQ(0, 1), UOp: "CNOT", Imm: 1},
		{Op: isa.OpMeasure, QAddr: isa.MaskQ(0), Rd: 7},
	}
	var buf []isa.Instruction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range instr {
			var err error
			if buf, err = cs.AppendExpand(buf[:0], in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMemoryFootprint reports the §5.1.1 memory comparison (E5):
// QuMA's flat lookup table vs combination-linear waveform memory.
func BenchmarkMemoryFootprint(b *testing.B) {
	model := aps2.DefaultCostModel()
	var q, w int
	for i := 0; i < b.N; i++ {
		q = model.QuMAMemoryBytes(1)
		w = model.WaveformMemoryBytes(1, 21, 2)
	}
	b.ReportMetric(float64(q), "quma-bytes")
	b.ReportMetric(float64(w), "waveform-bytes")
	b.ReportMetric(float64(w)/float64(q), "ratio")
}

// BenchmarkTimingSensitivity measures the §4.2.3 effect (E6): demodulate
// a π pulse at shifted start times; the metric reports the axis shift per
// 5 ns, which must be 90° at 50 MHz SSB.
func BenchmarkTimingSensitivity(b *testing.B) {
	env := pulse.GaussianEnvelope(20, 4, pulse.CalibratedGaussianAmp(20, 4, math.Pi))
	w := pulse.Synthesize(env, pulse.DefaultSSBHz, 0)
	var shift float64
	for i := 0; i < b.N; i++ {
		phi0, _ := pulse.Rotation(w, pulse.DefaultSSBHz, 0)
		phi5, _ := pulse.Rotation(w, pulse.DefaultSSBHz, 5)
		shift = math.Mod(phi5-phi0+2*math.Pi, 2*math.Pi) * 180 / math.Pi
	}
	b.ReportMetric(shift, "deg-per-5ns")
}

// BenchmarkFig5Timeline runs the one-round trace of Figures 3/5 (E7).
func BenchmarkFig5Timeline(b *testing.B) {
	src := `
Wait 40000
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y180
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.TraceEvents = true
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RunAssembly(src); err != nil {
			b.Fatal(err)
		}
		if len(m.Trace()) != 4 {
			b.Fatal("wrong trace length")
		}
	}
}

// BenchmarkT1 runs the T1 experiment (E8) and reports the fitted T1 in
// microseconds (configured: 30 µs).
func BenchmarkT1(b *testing.B) {
	var tau float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		p := expt.DefaultSweepParams()
		p.Rounds = 60
		res, err := expt.NewEnv().RunT1(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		tau = res.Fit.Tau * 1e6
	}
	b.ReportMetric(tau, "T1-µs")
}

// BenchmarkRamsey runs the Ramsey experiment (E8) and reports the fitted
// fringe frequency in kHz (configured detuning: 100 kHz).
func BenchmarkRamsey(b *testing.B) {
	var freq float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		qp := qphys.DefaultQubitParams()
		qp.FreqDetuningHz = 100e3
		cfg.Qubit = []qphys.QubitParams{qp}
		p := expt.DefaultSweepParams()
		p.Rounds = 60
		p.DelaysCycles = nil
		for k := 0; k < 40; k++ {
			p.DelaysCycles = append(p.DelaysCycles, k*200)
		}
		res, err := expt.NewEnv().RunRamsey(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		freq = res.Fit.Freq / 1e3
	}
	b.ReportMetric(freq, "fringe-kHz")
}

// BenchmarkEcho runs the echo experiment (E8) and reports the fitted
// echo time constant in microseconds.
func BenchmarkEcho(b *testing.B) {
	var tau float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		qp := qphys.DefaultQubitParams()
		qp.FreqDetuningHz = 100e3
		cfg.Qubit = []qphys.QubitParams{qp}
		p := expt.DefaultSweepParams()
		p.Rounds = 60
		res, err := expt.NewEnv().RunEcho(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		tau = res.Fit.Tau * 1e6
	}
	b.ReportMetric(tau, "T2echo-µs")
}

// BenchmarkRB runs randomized benchmarking (E9) and reports the fitted
// error per Clifford.
func BenchmarkRB(b *testing.B) {
	var epc float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		p := expt.DefaultRBParams()
		p.Trials = 3
		p.Rounds = 40
		res, err := expt.NewEnv().RunRB(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		epc = res.Fit.ErrorPerClifford()
	}
	b.ReportMetric(epc, "err/Clifford")
}

// BenchmarkColdRB times the cold path of randomized benchmarking: each
// iteration builds a fresh expt.Env, so every sequence program is new to
// its program cache and every pooled machine is new, and runs one
// Env.RunRB with the parameters of qumabench's rb_sweep workload
// (trajectory, lengths 1–128, 4 trials, 400 rounds, one worker, one shot
// worker), whose setup_s is this cold experiment. -short (the CI bench
// smoke) runs four lengths and two trials.
func BenchmarkColdRB(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	p := expt.DefaultRBParams()
	p.Trials, p.Rounds = 4, 400
	p.Workers, p.ShotWorkers = 1, 1
	if testing.Short() {
		p.Lengths, p.Trials = []int{1, 8, 32, 128}, 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := expt.NewEnv().RunRB(context.Background(), cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuMAvsAPS2 exercises the §6 comparison (E10): the APS2-style
// sequencer with TDM synchronization stalls vs QuMA's stall-free
// label-based timing; metrics report the stall cycles per synchronized
// round and the memory ratio.
func BenchmarkQuMAvsAPS2(b *testing.B) {
	model := aps2.DefaultCostModel()
	var stalls clock.Cycle
	for i := 0; i < b.N; i++ {
		mod := aps2.NewModule("awg")
		for s := 0; s < 21; s++ {
			mod.LoadSegment(s, 40)
		}
		prog := []aps2.Instr{}
		for s := 0; s < 21; s++ {
			prog = append(prog,
				aps2.Instr{Kind: aps2.OpWaitTrigger},
				aps2.Instr{Kind: aps2.OpOutput, Segment: s},
			)
		}
		prog = append(prog, aps2.Instr{Kind: aps2.OpHalt})
		mod.Program = prog
		sys := aps2.NewSystem(mod)
		res, err := sys.Run(1000)
		if err != nil {
			b.Fatal(err)
		}
		stalls = res.StallCycles
	}
	b.ReportMetric(float64(stalls), "stall-cycles")
	b.ReportMetric(float64(model.WaveformMemoryBytes(1, 21, 2))/float64(model.QuMAMemoryBytes(1)), "mem-ratio")
}

// BenchmarkAlgorithm2CNOT runs the microcoded CNOT end to end (E11).
func BenchmarkAlgorithm2CNOT(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.NumQubits = 2
	cfg.Qubit = []qphys.QubitParams{{}, {}}
	for i := 0; i < b.N; i++ {
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RunAssembly("Wait 8\nPulse {q0}, X180\nWait 4\nApply2 CNOT, q1, q0\nhalt"); err != nil {
			b.Fatal(err)
		}
		if p := m.State.ProbExcited(1); math.Abs(p-1) > 1e-3 {
			b.Fatalf("CNOT broken: P=%v", p)
		}
	}
}

// BenchmarkFeedbackActiveReset measures the feedback loop (E14): one
// measure-branch-correct cycle through the whole stack.
func BenchmarkFeedbackActiveReset(b *testing.B) {
	src := `
mov r15, 40000
mov r6, 0
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
Wait 340
beq r7, r6, Done
Pulse {q0}, X180
Wait 4
Done:
halt
`
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RunAssembly(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkTimingControllerEventDriven demonstrates that the timing
// controller's cost is O(events), not O(cycles): the same event count
// with 4-cycle vs 40000-cycle intervals must cost the same.
func BenchmarkTimingControllerEventDriven(b *testing.B) {
	for _, interval := range []clock.Cycle{4, 40000} {
		b.Run(fmt.Sprintf("interval-%d", interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc := timing.NewController()
				q := timing.NewEventQueue[int]("p", nil)
				tc.Register(q)
				for k := 1; k <= 1000; k++ {
					tc.TQ.Push(timing.TimePoint{Interval: interval, Label: timing.Label(k)})
					q.Push(k, timing.Label(k))
				}
				tc.Start()
				if _, err := tc.Drain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHorizontalMicrocode compares one horizontal Pulse addressing 8
// qubits against 8 vertical single-qubit Pulses: the horizontal form
// costs one instruction decode instead of eight.
func BenchmarkHorizontalMicrocode(b *testing.B) {
	all := isa.MaskQ(0, 1, 2, 3, 4, 5, 6, 7)
	b.Run("horizontal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qmb := exec.NewQMB(nil, nil, nil)
			for k := 0; k < 100; k++ {
				qmb.Wait(4)
				if err := qmb.Submit(isa.Instruction{Op: isa.OpPulse, QAddr: all, UOp: "X180"}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("vertical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qmb := exec.NewQMB(nil, nil, nil)
			for k := 0; k < 100; k++ {
				qmb.Wait(4)
				for q := 0; q < 8; q++ {
					if err := qmb.Submit(isa.Instruction{Op: isa.OpPulse, QAddr: isa.MaskQ(q), UOp: "X180"}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkSeqZMicroOpExpansion measures the µop-level Z emulation (E12):
// one micro-operation expanding to two codeword triggers, vs the
// microcode-level expansion that sends two separate pulse events through
// the timing control unit. The µop route halves the timing-control
// traffic.
func BenchmarkSeqZMicroOpExpansion(b *testing.B) {
	b.Run("uop-level", func(b *testing.B) {
		u := newSeqZUnit(b)
		var trs []uop.Trigger
		for i := 0; i < b.N; i++ {
			var err error
			trs, err = u.Expand(trs[:0], "Z", clock.Cycle(i*8))
			if err != nil {
				b.Fatal(err)
			}
			if len(trs) != 2 {
				b.Fatal("bad expansion")
			}
		}
	})
	b.Run("microcode-level", func(b *testing.B) {
		cs := microcode.StandardControlStore()
		in := isa.Instruction{Op: isa.OpApply, QAddr: isa.MaskQ(0), UOp: "Z"}
		var mis []isa.Instruction
		for i := 0; i < b.N; i++ {
			var err error
			mis, err = cs.AppendExpand(mis[:0], in)
			if err != nil {
				b.Fatal(err)
			}
			if len(mis) != 4 {
				b.Fatal("bad expansion")
			}
		}
	})
}

// BenchmarkEncodeDecode measures the binary ISA round trip (E13).
func BenchmarkEncodeDecode(b *testing.B) {
	syms := isa.StandardSymbols()
	in := isa.Instruction{Op: isa.OpPulse, QAddr: isa.MaskQ(2), UOp: "X180"}
	for i := 0; i < b.N; i++ {
		w, err := isa.Encode(in, syms)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := isa.Decode(w, syms); err != nil {
			b.Fatal(err)
		}
	}
}

func newSeqZUnit(b *testing.B) *uop.Unit {
	b.Helper()
	u := uop.NewUnit()
	if err := u.Define("Z", uop.SeqZ()); err != nil {
		b.Fatal(err)
	}
	return u
}

// BenchmarkRabiCalibration runs the amplitude-calibration sweep (E15)
// and reports the extracted π-pulse scale (1.0 = nominal calibration
// correct).
func BenchmarkRabiCalibration(b *testing.B) {
	var piScale float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		p := expt.DefaultRabiParams()
		p.Rounds = 60
		res, err := expt.NewEnv().RunRabi(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		piScale = res.PiScale
	}
	b.ReportMetric(piScale, "pi-scale")
}

// BenchmarkRepCode runs the feedback-corrected repetition code (E16)
// and reports the bare and corrected logical error rates.
func BenchmarkRepCode(b *testing.B) {
	var bare, corrected float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		p := expt.DefaultRepCodeParams()
		p.Rounds = 100
		res, err := expt.NewEnv().RunRepCode(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		bare, corrected = res.Unprotected, res.Protected
	}
	b.ReportMetric(bare, "bare-err")
	b.ReportMetric(corrected, "corrected-err")
}

// BenchmarkShardedRepCode measures the shot-sharding lever on a
// shot-heavy repetition-code job (E18): 100k replay-safe code rounds
// through Env.RunProgram — one shard per expt.ShotShardSize shots — at
// 1 vs NumCPU shot workers, on the density backend at the paper-era
// d = 3 and on the trajectory backend at the d = 7 scale only it can
// reach. Results are bit-identical across the worker axis (the shard
// plan and seeds are pure functions of the shot count); only the wall
// clock moves, which is exactly what ns/op isolates.
func BenchmarkShardedRepCode(b *testing.B) {
	cases := []struct {
		name    string
		backend core.Backend
		d       int
	}{
		{"density-d3", core.BackendDensity, 3},
		{"trajectory-d7", core.BackendTrajectory, 7},
	}
	// The full 100k-shot job is the acceptance measurement; -short (the
	// CI bench smoke) scales it down to breakage-detection size.
	shots := 100_000
	if testing.Short() {
		shots = 10_000
	}
	workerAxis := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		workerAxis = workerAxis[:1] // the axes coincide; skip the duplicate
	}
	for _, c := range cases {
		p := expt.DefaultRepCodeParams()
		p.DataQubits = c.d
		src := expt.RepCodeShotProgram(p, false)
		for _, sw := range workerAxis {
			b.Run(fmt.Sprintf("%s/shot-workers-%d", c.name, sw), func(b *testing.B) {
				b.ReportAllocs()
				env := expt.NewEnv()
				cfg := core.DefaultConfig()
				cfg.Backend = c.backend
				cfg.NumQubits = 2*c.d - 1
				cfg.Seed = 1
				for i := 0; i < b.N; i++ {
					if _, err := env.RunProgram(context.Background(), cfg, expt.ProgramParams{
						Source: src, Shots: shots, ShotWorkers: sw,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVLIWIssueRate bundles the AllXY program at increasing widths
// (E17, the paper's §6 proposal) and reports instructions per bundle.
func BenchmarkVLIWIssueRate(b *testing.B) {
	prog := asm.MustAssemble(expt.AllXYProgram(expt.DefaultAllXYParams()))
	for _, width := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("width-%d", width), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				bp, err := exec.BundleProgram(prog, width)
				if err != nil {
					b.Fatal(err)
				}
				rate = bp.IssueRate()
			}
			b.ReportMetric(rate, "instrs/bundle")
		})
	}
}

// BenchmarkVLIWExecution compares scalar vs width-4 VLIW execution of
// the same pulse-heavy program (ablation for DESIGN.md §5).
func BenchmarkVLIWExecution(b *testing.B) {
	src := `
mov r15, 400
mov r1, 0
mov r2, 20
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
addi r1, r1, 1
bne r1, r2, Loop
halt
`
	prog := asm.MustAssemble(src)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qmb := exec.NewQMB(nil, nil, nil)
			c := exec.NewController(microcode.StandardControlStore(), qmb)
			if err := c.Load(prog); err != nil {
				b.Fatal(err)
			}
			if err := c.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vliw-4", func(b *testing.B) {
		bp, err := exec.BundleProgram(prog, 4)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			qmb := exec.NewQMB(nil, nil, nil)
			vc := exec.NewVLIWController(exec.NewController(microcode.StandardControlStore(), qmb), bp)
			if err := vc.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMuxReadout measures the §5.1.2 multiplexed-readout path
// (E19): one combined 4-channel trace demultiplexed and discriminated.
func BenchmarkMuxReadout(b *testing.B) {
	p, err := readout.DefaultMuxParams(4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := readout.CalibrateMux(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	trace, err := readout.SynthesizeMuxTrace(p, []int{0, 1, 0, 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	errs := 0
	for i := 0; i < b.N; i++ {
		results, _ := m.Measure(trace)
		if results[1] != 1 || results[3] != 1 {
			errs++
		}
	}
	b.ReportMetric(float64(errs)/float64(b.N), "err-rate")
	b.ReportMetric(4, "qubits-per-MDU")
}

// BenchmarkICacheLocality compares the quantum-instruction-cache
// behaviour of the compact Algorithm-3 loop against its unrolled
// equivalent (E20): hit rates and modelled fetch stalls.
func BenchmarkICacheLocality(b *testing.B) {
	loop := asm.MustAssemble(`
mov r15, 100
mov r1, 0
mov r2, 200
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
addi r1, r1, 1
bne r1, r2, Loop
halt
`)
	var hitRate float64
	for i := 0; i < b.N; i++ {
		qmb := exec.NewQMB(nil, nil, nil)
		ctrl := exec.NewController(microcode.StandardControlStore(), qmb)
		ic, err := exec.NewICache(64, 4, 20)
		if err != nil {
			b.Fatal(err)
		}
		ctrl.ICache = ic
		if err := ctrl.Load(loop); err != nil {
			b.Fatal(err)
		}
		if err := ctrl.Run(0); err != nil {
			b.Fatal(err)
		}
		hitRate = ic.HitRate()
	}
	b.ReportMetric(hitRate, "hit-rate")
}

// --- Gate-kernel micro-benchmarks (simulator hot path) ---
//
// The in-place kernels must report 0 allocs/op: every gate and idle step
// of every shot goes through them, so a single allocation here multiplies
// into millions per experiment.

// BenchmarkApply1 measures the single-qubit unitary kernel at n=3.
func BenchmarkApply1(b *testing.B) {
	d := qphys.NewDensity(3)
	u := qphys.RX(0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply1(u, 1)
	}
}

// BenchmarkApply2 measures the two-qubit unitary kernel at n=3 (the CZ
// flux-pulse path).
func BenchmarkApply2(b *testing.B) {
	d := qphys.NewDensity(3)
	cz := qphys.CZ()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply2(cz, 0, 2)
	}
}

// BenchmarkKraus1 measures the single-qubit channel kernel at n=3 with
// the full 8-operator decoherence set of advance().
func BenchmarkKraus1(b *testing.B) {
	d := qphys.NewDensity(3)
	d.Apply1(qphys.RX(math.Pi/2), 1)
	ops := qphys.DecoherenceChannel(20e-9, qphys.DefaultQubitParams())
	b.ReportMetric(float64(len(ops)), "kraus-ops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ApplyKraus1(ops, 1)
	}
}

// --- Trajectory-backend kernels (must also report 0 allocs/op) ---

// BenchmarkTrajectoryApply1 measures the statevector single-qubit kernel
// at n=12 — a register size the density backend cannot even allocate.
func BenchmarkTrajectoryApply1(b *testing.B) {
	tr := qphys.NewTrajectorySource(12, prng.New(1))
	u := qphys.RX(0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply1(u, 5)
	}
}

// BenchmarkTrajectoryApply2 measures the statevector two-qubit kernel at
// n=12.
func BenchmarkTrajectoryApply2(b *testing.B) {
	tr := qphys.NewTrajectorySource(12, prng.New(1))
	cz := qphys.CZ()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Apply2(cz, 3, 9)
	}
}

// BenchmarkTrajectoryKraus1 measures Monte-Carlo channel unwinding at
// n=12 with the full 8-operator decoherence set of advance().
func BenchmarkTrajectoryKraus1(b *testing.B) {
	tr := qphys.NewTrajectorySource(12, prng.New(1))
	tr.Apply1(qphys.RX(math.Pi/2), 5)
	ops := qphys.DecoherenceChannel(20e-9, qphys.DefaultQubitParams())
	b.ReportMetric(float64(len(ops)), "kraus-ops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyKraus1(ops, 5)
	}
}

// BenchmarkBackendRepCode runs the 5-qubit repetition-code memory
// experiment at equal shot count on both backends: the trajectory
// backend's O(2^n) state should make it the faster substrate for this
// multi-shot workload.
func BenchmarkBackendRepCode(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		b.Run(string(backend), func(b *testing.B) {
			var bare, corrected float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Backend = backend
				cfg.Seed = int64(i + 1)
				p := expt.DefaultRepCodeParams()
				p.Rounds = 100
				res, err := expt.NewEnv().RunRepCode(context.Background(), cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				bare, corrected = res.Unprotected, res.Protected
			}
			b.ReportMetric(bare, "bare-err")
			b.ReportMetric(corrected, "corrected-err")
		})
	}
}

// BenchmarkBackendRB runs randomized benchmarking at equal shot count on
// both backends.
func BenchmarkBackendRB(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		b.Run(string(backend), func(b *testing.B) {
			var epc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Backend = backend
				cfg.Seed = int64(i + 1)
				p := expt.DefaultRBParams()
				p.Trials = 3
				p.Rounds = 40
				res, err := expt.NewEnv().RunRB(context.Background(), cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				epc = res.Fit.ErrorPerClifford()
			}
			b.ReportMetric(epc, "err/Clifford")
		})
	}
}

// BenchmarkBackendRepCode9Q runs the distance-5 (9-qubit) code — the
// scenario only the trajectory backend can reach.
func BenchmarkBackendRepCode9Q(b *testing.B) {
	var protected float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Backend = core.BackendTrajectory
		cfg.Seed = int64(i + 1)
		p := expt.DefaultRepCodeParams()
		p.DataQubits = 5
		p.Rounds = 60
		p.WaitCycles = 800
		res, err := expt.NewEnv().RunRepCode(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		protected = res.Protected
	}
	b.ReportMetric(protected, "protected-err")
}

// --- Shot-replay engine benchmarks (full simulation vs replay) ---
//
// Each group runs the same experiment at equal shot count with the
// engine forced off (every shot through fetch/decode/QMB/timing queues)
// and in compiled replay (per-schedule kernels). Results are
// bit-identical by the engine contract; only ns/op moves.

// replayBenchModes maps engine modes to their sub-benchmark names.
var replayBenchModes = []struct {
	mode replay.Mode
	name string
}{
	{replay.ModeOff, "full"},
	{replay.ModeCompiled, "compiled"},
}

// BenchmarkFullPipelineShot measures one steady-state shot through the
// full QuMA pipeline (controller → microcode → QMB → timing queues → µop
// unit → CTPG/MDU → state backend) — the path every shot of a feedback
// program and the lead/detect shots of every replay shard pay. allocs/op
// must stay 0 (TestFullPipelineShotDoesNotAllocate pins it).
func BenchmarkFullPipelineShot(b *testing.B) {
	pulses, _ := expt.RandomCliffordSequence(128, rand.New(rand.NewSource(128)))
	shots := []struct {
		name   string
		qubits int
		prog   *isa.Program
	}{
		{"rb_m128", 1, asm.MustAssemble(expt.RBShotProgram(expt.DefaultRBParams(), pulses))},
		{"repcode_d3", 5, asm.MustAssemble(expt.RepCodeShotProgram(expt.DefaultRepCodeParams(), false))},
	}
	for _, sp := range shots {
		for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
			b.Run(sp.name+"/"+string(backend), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Backend = backend
				cfg.NumQubits = sp.qubits
				m, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Shot 0 carries the cold-start transient.
				if err := m.RunProgram(sp.prog); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The playback and digital-output logs record every shot
					// until the next reset; truncate them so b.N shots do not
					// grow them without bound.
					for _, c := range m.CTPG {
						c.ResetPlaybacks()
					}
					m.Digital.Reset()
					if err := m.RunProgram(sp.prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplayRB runs randomized benchmarking — the pulse-heaviest
// replay-safe workload (up to ~350 pulses per shot at m=128) — on both
// backends.
func BenchmarkReplayRB(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for _, bm := range replayBenchModes {
			mode := bm.mode
			b.Run(string(backend)+"/"+bm.name, func(b *testing.B) {
				var epc float64
				for i := 0; i < b.N; i++ {
					cfg := core.DefaultConfig()
					cfg.Backend = backend
					cfg.Seed = int64(i + 1)
					p := expt.DefaultRBParams()
					p.Trials = 3
					p.Rounds = 120
					p.Replay = mode
					res, err := expt.NewEnv().RunRB(context.Background(), cfg, p)
					if err != nil {
						b.Fatal(err)
					}
					epc = res.Fit.ErrorPerClifford()
				}
				b.ReportMetric(epc, "err/Clifford")
			})
		}
	}
}

// BenchmarkReplayRepCode drives the syndromes-only repetition-code memory
// round (encode, CNOT syndrome extraction, 5 measurements per shot)
// directly through the engine at equal shot count — the physics-bound
// workload the compiled-schedule engine is measured on.
func BenchmarkReplayRepCode(b *testing.B) {
	p := expt.DefaultRepCodeParams()
	src := expt.RepCodeShotProgram(p, false)
	prog := asm.MustAssemble(src)
	const shots = 400
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		cfg := core.DefaultConfig()
		cfg.Backend = backend
		cfg.NumQubits = 5
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, bm := range replayBenchModes {
			mode := bm.mode
			b.Run(string(backend)+"/"+bm.name, func(b *testing.B) {
				var logicalErr float64
				for i := 0; i < b.N; i++ {
					m.ResetState(int64(i + 1))
					errs := 0
					st, err := replay.Run(context.Background(), m, prog, replay.Options{
						Shots: shots,
						Mode:  mode,
						OnShot: func(_ int, md []replay.MD) {
							ones := 0
							for _, r := range md[len(md)-3:] {
								ones += r.Result
							}
							if ones < 2 {
								errs++
							}
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					if mode != replay.ModeOff && !st.Safe {
						b.Fatalf("syndromes-only round must be replay-safe: %+v", st)
					}
					if mode == replay.ModeCompiled && !st.Compiled {
						b.Fatalf("compiled mode must use the compiled engine: %+v", st)
					}
					logicalErr = float64(errs) / shots
				}
				b.ReportMetric(logicalErr, "logical-err")
				b.ReportMetric(shots, "shots")
			})
		}
	}
}

// BenchmarkSweepEngine measures the parallel sweep engine on the T1
// delay sweep: 1 worker vs one worker per CPU, same results either way.
func BenchmarkSweepEngine(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "all-cpus"
		}
		b.Run(name, func(b *testing.B) {
			var tau float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Seed = int64(i + 1)
				p := expt.DefaultSweepParams()
				p.Rounds = 60
				p.Workers = workers
				res, err := expt.NewEnv().RunT1(context.Background(), cfg, p)
				if err != nil {
					b.Fatal(err)
				}
				tau = res.Fit.Tau * 1e6
			}
			b.ReportMetric(tau, "T1-µs")
		})
	}
}

// BenchmarkPhaseCode runs the dephasing-protected memory (E21).
func BenchmarkPhaseCode(b *testing.B) {
	var bare, protected float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i + 1)
		for q := 0; q < 5; q++ {
			cfg.Qubit = append(cfg.Qubit, expt.DephasingQubit(20e-6))
		}
		p := expt.DefaultRepCodeParams()
		p.Rounds = 80
		p.WaitCycles = 800
		res, err := expt.NewEnv().RunPhaseCode(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		bare, protected = res.Bare, res.Protected
	}
	b.ReportMetric(bare, "bare-err")
	b.ReportMetric(protected, "protected-err")
}

// laneBenchSource is BenchmarkReplayLanes' replay-safe shot on nq
// qubits: 48 layers of one pulse per qubit, each layer after the first
// opening with a CNOT on a neighbouring pair when nq ≥ 2, then a
// readout of every qubit.
func laneBenchSource(nq int) string {
	pulses := []string{"X90", "Y90", "Xm90", "Y180", "X180", "Ym90"}
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, 4000")
	w("QNopReg r15")
	for layer := 0; layer < 48; layer++ {
		if nq >= 2 && layer > 0 {
			q := layer % (nq - 1)
			w("Apply2 CNOT, q%d, q%d", q+1, q)
		}
		for q := 0; q < nq; q++ {
			w("Pulse {q%d}, %s", q, pulses[(layer+q)%len(pulses)])
			w("Wait 4")
		}
	}
	for q := 0; q < nq; q++ {
		w("MPG {q%d}, 300", q)
		w("MD {q%d}, r7", q)
		w("Wait 340")
	}
	w("halt")
	return b.String()
}

// BenchmarkReplayLanes is the evidence behind the sweep engine's
// automatic lane rule (expt.ShardLaneGroups): the trajectory-backend
// cost per shot of one shot shard per lane through replay.RunBatch, at
// each register size and lane count. lanes-1 is the scalar executor;
// more lanes run the replayed shots in lockstep. Lanes 3 and 6 are
// widths auto grouping produces (6 shards on 2 workers); the odd widths
// 3, 5 and 7 run the span passes' pure-Go bodies, so they price the
// SIMD tiers against the Go bodies at neighbouring widths. Lead shots
// are included, as they are in a sharded sweep point.
func BenchmarkReplayLanes(b *testing.B) {
	shots := 1024
	if testing.Short() {
		shots = 128
	}
	for _, nq := range []int{1, 2, 3, 4, 5, 9} {
		prog := asm.MustAssemble(laneBenchSource(nq))
		cfg := core.DefaultConfig()
		cfg.Backend = core.BackendTrajectory
		cfg.NumQubits = nq
		for _, lanes := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
			b.Run(fmt.Sprintf("nq%d/lanes-%d", nq, lanes), func(b *testing.B) {
				bl := make([]replay.BatchLane, lanes)
				for l := range bl {
					m, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					bl[l] = replay.BatchLane{M: m, BaseShot: l * shots}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for l := range bl {
						bl[l].M.ResetState(int64(i*lanes + l + 1))
					}
					sts, err := replay.RunBatch(context.Background(), prog, bl, shots, replay.ModeCompiled)
					if err != nil {
						b.Fatal(err)
					}
					if !sts[0].Compiled {
						b.Fatalf("benchmark shot must replay: %+v", sts[0])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes*shots), "ns/shot")
			})
		}
	}
}
