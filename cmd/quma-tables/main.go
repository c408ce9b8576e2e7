// Command quma-tables regenerates every table and figure of the paper's
// evaluation from the simulated QuMA stack. Each flag selects one
// artifact; -all prints everything. See EXPERIMENTS.md for the mapping.
//
// Usage:
//
//	quma-tables -all
//	quma-tables -fig9 -rounds 25600      # full-size AllXY
//	quma-tables -table1 -table5 -queues -memory -timing -timeline
//	quma-tables -t1 -ramsey -echo -rb -aps2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"quma/internal/aps2"
	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/clock"
	"quma/internal/core"
	"quma/internal/exec"
	"quma/internal/expt"
	"quma/internal/isa"
	"quma/internal/microcode"
	"quma/internal/pulse"
	"quma/internal/qphys"
	"quma/internal/readout"
	"quma/internal/uop"
)

var (
	all      = flag.Bool("all", false, "print every artifact")
	fig9     = flag.Bool("fig9", false, "Figure 9: AllXY staircase")
	table1   = flag.Bool("table1", false, "Table 1: CTPG lookup table")
	table5   = flag.Bool("table5", false, "Table 5: four-level decoding trace")
	queues   = flag.Bool("queues", false, "Tables 2-4: queue states")
	memoryF  = flag.Bool("memory", false, "§5.1.1 memory comparison")
	timingF  = flag.Bool("timing", false, "§4.2.3 timing sensitivity")
	timeline = flag.Bool("timeline", false, "Figures 3/5: one-round timeline")
	t1F      = flag.Bool("t1", false, "T1 relaxation experiment")
	ramseyF  = flag.Bool("ramsey", false, "T2* Ramsey experiment")
	echoF    = flag.Bool("echo", false, "T2 echo experiment")
	rbF      = flag.Bool("rb", false, "randomized benchmarking")
	aps2F    = flag.Bool("aps2", false, "§6 QuMA vs APS2 comparison")
	fig3     = flag.Bool("fig3", false, "Figure 3: one-round waveform oscillogram")
	rabiF    = flag.Bool("rabi", false, "Rabi amplitude calibration sweep")
	repcodeF = flag.Bool("repcode", false, "3-qubit repetition code with feedback")
	phaseF   = flag.Bool("phasecode", false, "3-qubit phase-flip code under dephasing")
	muxF     = flag.Bool("mux", false, "§5.1.2 frequency-multiplexed readout")
	icacheF  = flag.Bool("icache", false, "quantum instruction cache locality")
	vliwF    = flag.Bool("vliw", false, "§6 VLIW issue-rate study")
	rounds   = flag.Int("rounds", 400, "averaging rounds for fig9 (paper: 25600)")
	seed     = flag.Int64("seed", 1, "PRNG seed")
)

// env is the experiment environment every artifact shares: one assembly
// cache and one set of machine pools for the whole run.
var env = expt.NewEnv()

func main() {
	flag.Parse()
	any := false
	run := func(enabled bool, name string, fn func() error) {
		if !enabled && !*all {
			return
		}
		any = true
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "quma-tables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	run(*table1, "Table 1: CTPG lookup table", printTable1)
	run(*queues, "Tables 2-4: AllXY queue states", printQueues)
	run(*table5, "Table 5: multilevel decoding trace", printTable5)
	run(*timeline, "Figures 3/5: one-round timeline", printTimeline)
	run(*memoryF, "§5.1.1: memory footprint comparison", printMemory)
	run(*timingF, "§4.2.3: SSB timing sensitivity", printTiming)
	run(*fig9, "Figure 9: AllXY staircase", printFig9)
	run(*t1F, "T1 relaxation", printT1)
	run(*ramseyF, "T2* Ramsey", printRamsey)
	run(*echoF, "T2 echo", printEcho)
	run(*rbF, "Randomized benchmarking", printRB)
	run(*aps2F, "§6: QuMA vs APS2", printAPS2)
	run(*fig3, "Figure 3: one-round waveform oscillogram", printFig3)
	run(*rabiF, "Rabi amplitude calibration", printRabi)
	run(*repcodeF, "3-qubit repetition code with feedback", printRepCode)
	run(*phaseF, "3-qubit phase-flip code under dephasing", printPhaseCode)
	run(*muxF, "§5.1.2: frequency-multiplexed readout", printMux)
	run(*icacheF, "quantum instruction cache locality", printICache)
	run(*vliwF, "§6: VLIW issue rate", printVLIW)
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

func printTable1() error {
	c := awg.NewCTPG()
	if err := c.UploadStandardLibrary(0); err != nil {
		return err
	}
	fmt.Printf("%-9s %-6s %-8s %-10s %s\n", "codeword", "pulse", "samples", "bytes@12b", "rotation")
	for _, p := range awg.StandardLibrary() {
		w, name, _ := c.Lookup(p.Codeword)
		phi, theta := pulse.Rotation(w, c.SSBHz, 0)
		rot := "identity"
		if theta > 1e-9 {
			rot = fmt.Sprintf("θ=%.3fπ about φ=%.2fπ", theta/3.14159265, phi/3.14159265)
		}
		fmt.Printf("%-9d %-6s %-8d %-10d %s\n", p.Codeword, name, w.Len(), w.MemoryBytes(12), rot)
	}
	fmt.Printf("total lookup-table memory: %d bytes (paper: 420)\n", c.MemoryBytes(12))
	return nil
}

func printQueues() error {
	qmb := exec.NewQMB(nil, nil, nil)
	ctrl := exec.NewController(microcode.StandardControlStore(), qmb)
	prog := asm.MustAssemble(`
mov r15, 40000
QNopReg r15
Pulse {q0}, I
Wait 4
Pulse {q0}, I
Wait 4
MPG {q0}, 300
MD {q0}, r7
QNopReg r15
Pulse {q0}, X180
Wait 4
Pulse {q0}, X180
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`)
	if err := ctrl.Load(prog); err != nil {
		return err
	}
	for i := 0; i < len(prog.Instrs)-1; i++ {
		if err := ctrl.Step(); err != nil {
			return err
		}
	}
	dump := func(title string) {
		fmt.Printf("-- %s\n", title)
		fmt.Printf("%-24s %-18s %-12s %s\n", "Timing Queue", "Pulse Queue", "MPG Queue", "MD Queue")
		tq := qmb.TC.TQ.Snapshot()
		pq := qmb.PulseQ.Snapshot()
		mq := qmb.MPGQ.Snapshot()
		dq := qmb.MDQ.Snapshot()
		rows := len(tq)
		for _, n := range []int{len(pq), len(mq), len(dq)} {
			if n > rows {
				rows = n
			}
		}
		for i := 0; i < rows; i++ {
			var c1, c2, c3, c4 string
			if i < len(tq) {
				c1 = fmt.Sprintf("(%d, %d)", tq[i].Interval, tq[i].Label)
			}
			if i < len(pq) {
				c2 = fmt.Sprintf("(%s, %d)", pq[i].Event.UOp, pq[i].Label)
			}
			if i < len(mq) {
				c3 = fmt.Sprintf("(%d)", mq[i].Label)
			}
			if i < len(dq) {
				c4 = fmt.Sprintf("(r%d, %d)", dq[i].Event.Rd, dq[i].Label)
			}
			fmt.Printf("%-24s %-18s %-12s %s\n", c1, c2, c3, c4)
		}
	}
	dump("Table 2: TD = 0 (before start)")
	qmb.TC.Start()
	if _, err := qmb.TC.Step(); err != nil {
		return err
	}
	dump(fmt.Sprintf("Table 3: TD = %d", qmb.TC.TD()))
	for i := 0; i < 2; i++ {
		if _, err := qmb.TC.Step(); err != nil {
			return err
		}
	}
	dump(fmt.Sprintf("Table 4: TD = %d", qmb.TC.TD()))
	return nil
}

func printTable5() error {
	// Level 1: QIS input.
	qis := `QNopReg r15
Apply I, q0
Apply I, q0
Measure q0, r7
QNopReg r15
Apply X180, q0
Apply X180, q0
Measure q0, r7`
	fmt.Println("-- Level 1: QIS (input to the execution controller)")
	fmt.Println(qis)

	// Level 2: QuMIS after microcode expansion (r15 = 40000).
	cs := microcode.StandardControlStore()
	prog := asm.MustAssemble(qis + "\nhalt")
	fmt.Println("\n-- Level 2: QuMIS (input to the QMB)")
	var mis []isa.Instruction
	for _, in := range prog.Instrs {
		switch in.Op {
		case isa.OpQNopReg:
			w := isa.Instruction{Op: isa.OpWait, Imm: 40000}
			mis = append(mis, w)
			fmt.Println(w.String())
		case isa.OpHalt:
		default:
			out, err := cs.Expand(in)
			if err != nil {
				return err
			}
			for _, mi := range out {
				mis = append(mis, mi)
				fmt.Println(mi.String())
			}
		}
	}

	// Level 3: micro-operations with deterministic timing.
	fmt.Println("\n-- Level 3: micro-operations (input to the u-op units)")
	type firing struct {
		td   clock.Cycle
		text string
	}
	var pulses []firing
	var meas []firing
	qmb := exec.NewQMB(
		func(e exec.PulseEvent, td clock.Cycle) {
			pulses = append(pulses, firing{td, fmt.Sprintf("TD=%d: %s sent to u-op unit0", td, e.UOp)})
		},
		func(e exec.MPGEvent, td clock.Cycle) {
			meas = append(meas, firing{td, fmt.Sprintf("TD=%d: MPG bypasses to digital output (D=%d)", td, e.Duration)})
		},
		func(e exec.MDEvent, td clock.Cycle) {
			meas = append(meas, firing{td, fmt.Sprintf("TD=%d: MD(r%d) sent to MDU0", td, e.Rd)})
		},
	)
	for _, mi := range mis {
		if err := qmb.Submit(mi); err != nil {
			return err
		}
	}
	qmb.TC.Start()
	if _, err := qmb.TC.Drain(); err != nil {
		return err
	}
	for _, f := range pulses {
		fmt.Println(f.text)
	}

	// Level 4: codeword triggers out of the u-op unit + CTPG targets.
	fmt.Println("\n-- Level 4: codeword triggers (input to the CTPG / MDU)")
	u := uop.NewUnit()
	u.DefineStandardLibrary()
	lut := map[string]awg.Codeword{}
	for _, p := range awg.StandardLibrary() {
		lut[p.Name] = p.Codeword
	}
	for _, f := range pulses {
		name := strings.Fields(strings.SplitN(f.text, ": ", 2)[1])[0]
		trs, err := u.Expand(nil, name, f.td)
		if err != nil {
			return err
		}
		for _, tr := range trs {
			fmt.Printf("TD=%d+Δ: CW %d (%s) sent to CTPG0\n", tr.At-u.Delay, tr.CW, name)
		}
	}
	for _, f := range meas {
		fmt.Println(f.text)
	}
	return nil
}

func printTimeline() error {
	cfg := core.DefaultConfig()
	cfg.TraceEvents = true
	cfg.Seed = *seed
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	err = m.RunAssembly(`
Wait 40000
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y180
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`)
	if err != nil {
		return err
	}
	for _, e := range m.Trace() {
		fmt.Println(e.String())
	}
	return nil
}

func printMemory() error {
	c := core.DefaultConfig()
	_ = c
	fmt.Printf("%-14s %-10s %-16s %-16s %s\n", "combinations", "qubits", "QuMA bytes", "waveform bytes", "ratio")
	model := defaultCost()
	for _, combos := range []int{21, 100, 1000} {
		for _, q := range []int{1, 8} {
			qm := model.QuMAMemoryBytes(q)
			wf := model.WaveformMemoryBytes(q, combos, 2)
			fmt.Printf("%-14d %-10d %-16d %-16d %.1fx\n", combos, q, qm, wf, float64(wf)/float64(qm))
		}
	}
	fmt.Println("(paper's AllXY point: 420 vs 2520 bytes)")
	return nil
}

func printTiming() error {
	fmt.Printf("%-12s %-18s %s\n", "delay (ns)", "axis shift (deg)", "effective gate")
	env := pulse.GaussianEnvelope(20, 4, pulse.CalibratedGaussianAmp(20, 4, 3.14159265))
	w := pulse.Synthesize(env, pulse.DefaultSSBHz, 0)
	phi0, _ := pulse.Rotation(w, pulse.DefaultSSBHz, 0)
	for d := 0; d <= 20; d += 5 {
		phi, _ := pulse.Rotation(w, pulse.DefaultSSBHz, clock.Sample(d))
		shift := (phi - phi0) * 180 / 3.14159265
		for shift < 0 {
			shift += 360
		}
		gate := "X180"
		switch int(shift+0.5) % 360 {
		case 90:
			gate = "Y180"
		case 180:
			gate = "Xm180"
		case 270:
			gate = "Ym180"
		}
		fmt.Printf("%-12d %-18.1f %s\n", d, shift, gate)
	}
	fmt.Println("(paper: at 50 MHz SSB, a 5 ns late x pulse becomes a y pulse)")
	return nil
}

func printFig9() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	p := expt.DefaultAllXYParams()
	p.Rounds = *rounds
	res, err := env.RunAllXY(context.Background(), cfg, p)
	if err != nil {
		return err
	}
	fmt.Print(res.Staircase())
	fmt.Printf("(paper measured deviation 0.012 at N=25600 on hardware)\n")
	return nil
}

func printT1() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	res, err := env.RunT1(context.Background(), cfg, expt.DefaultSweepParams())
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %s\n", "delay (µs)", "P(|1>)", "fit")
	for i, d := range res.DelaysSec {
		fmt.Printf("%-12.1f %-10.4f %.4f\n", d*1e6, res.Excited[i], res.Fit.Eval(d))
	}
	fmt.Printf("fitted T1 = %.1f µs (configured %.1f µs)\n", res.Fit.Tau*1e6, qphys.DefaultQubitParams().T1*1e6)
	return nil
}

func printRamsey() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 100e3
	cfg.Qubit = []qphys.QubitParams{qp}
	p := expt.DefaultSweepParams()
	p.DelaysCycles = nil
	for i := 0; i < 40; i++ {
		p.DelaysCycles = append(p.DelaysCycles, i*200)
	}
	res, err := env.RunRamsey(context.Background(), cfg, p)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %s\n", "delay (µs)", "P(|1>)", "fit")
	for i, d := range res.DelaysSec {
		fmt.Printf("%-12.2f %-10.4f %.4f\n", d*1e6, res.Excited[i], res.Fit.Eval(d))
	}
	fmt.Printf("fringe = %.1f kHz (detuning 100.0 kHz), T2* = %.1f µs (configured T2 %.1f µs)\n",
		res.Fit.Freq/1e3, res.Fit.Tau*1e6, qp.T2*1e6)
	return nil
}

func printEcho() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 100e3
	cfg.Qubit = []qphys.QubitParams{qp}
	res, err := env.RunEcho(context.Background(), cfg, expt.DefaultSweepParams())
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-10s %s\n", "delay (µs)", "P(|1>)", "fit")
	for i, d := range res.DelaysSec {
		fmt.Printf("%-12.1f %-10.4f %.4f\n", d*1e6, res.Excited[i], res.Fit.Eval(d))
	}
	fmt.Printf("fitted echo tau = %.1f µs (detuning refocused)\n", res.Fit.Tau*1e6)
	return nil
}

func printRB() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	res, err := env.RunRB(context.Background(), cfg, expt.DefaultRBParams())
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("avg pulses per Clifford: %.2f\n", res.AvgPulsesPerClifford)
	return nil
}

func printAPS2() error {
	model := defaultCost()
	fmt.Println("axis                       QuMA                     APS2-style baseline")
	fmt.Println("binaries                   1 (centralized)          1 per module (9 for 8 qubits)")
	fmt.Printf("memory, AllXY, 1 qubit     %-24d %d\n", model.QuMAMemoryBytes(1), model.WaveformMemoryBytes(1, 21, 2))
	fmt.Printf("memory, AllXY, 8 qubits    %-24d %d\n", model.QuMAMemoryBytes(8), model.WaveformMemoryBytes(8, 21, 2))
	fmt.Printf("reconfigure 1 combination  %-24d %d bytes re-uploaded\n",
		model.ReconfigureUploadBytes(false, 2), model.ReconfigureUploadBytes(true, 2))
	fmt.Println("synchronization            timing labels, no stall  TDM trigger: sequencer stalls")
	return nil
}

func printFig3() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	// One AllXY-style round: two gates back to back, then measurement.
	err = m.RunAssembly(`
Wait 400
Pulse {q0}, X180
Wait 4
Pulse {q0}, Y90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`)
	if err != nil {
		return err
	}
	var events []pulse.Timed
	for _, pb := range m.CTPG[0].Playbacks() {
		events = append(events, pulse.Timed{Start: pb.Start, Wave: pb.Wave})
	}
	// Drive pulses are 20 ns; the measurement gate is 1.5 µs. Like the
	// paper's figure, the gate-pulse region is shown zoomed.
	first := events[0].Start
	fmt.Printf("drive I-channel, zoomed (X180 then Y90, 20 ns apart; starts at %.3f µs):\n", float64(first)*1e-3)
	fmt.Print(pulse.RenderTrack(events, first-10, first+60, 70, 11))
	var highs [][2]clock.Sample
	for _, iv := range m.Digital.Intervals(0) {
		highs = append(highs, [2]clock.Sample{iv.Start.Samples(), iv.End.Samples()})
	}
	from := first - 100
	to := highs[len(highs)-1][1] + 100
	fmt.Println("\nfull round — measurement gate (digital output 0):")
	fmt.Println(pulse.RenderGate(highs, from, to, 100))
	fmt.Printf("window: %.2f µs .. %.2f µs\n", float64(from)*1e-3, float64(to)*1e-3)
	return nil
}

func printRabi() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	res, err := env.RunRabi(context.Background(), cfg, expt.DefaultRabiParams())
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	return nil
}

func printRepCode() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	res, err := env.RunRepCode(context.Background(), cfg, expt.DefaultRepCodeParams())
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	return nil
}

func printPhaseCode() error {
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	for i := 0; i < 5; i++ {
		cfg.Qubit = append(cfg.Qubit, expt.DephasingQubit(20e-6))
	}
	p := expt.DefaultRepCodeParams()
	p.WaitCycles = 800
	res, err := env.RunPhaseCode(context.Background(), cfg, p)
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	return nil
}

func printMux() error {
	p, err := readout.DefaultMuxParams(4)
	if err != nil {
		return err
	}
	x, err := readout.CrosstalkMatrix(p)
	if err != nil {
		return err
	}
	fmt.Println("4 qubits on one feedline, one digitizer; demodulation crosstalk matrix:")
	for i := range x {
		fmt.Print("  ")
		for j := range x[i] {
			fmt.Printf("%6.3f ", x[i][j])
		}
		fmt.Println()
	}
	fmt.Println("(identity = channels separate exactly; the §5.1.2 scalability claim)")
	return nil
}

func printICache() error {
	for _, scenario := range []struct {
		name string
		src  string
	}{
		{"Algorithm-3 loop (compact)", `
mov r15, 100
mov r1, 0
mov r2, 500
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
addi r1, r1, 1
bne r1, r2, Loop
halt`},
		{"fully unrolled equivalent", unrolledProgram(500)},
	} {
		qmb := exec.NewQMB(nil, nil, nil)
		ctrl := exec.NewController(microcode.StandardControlStore(), qmb)
		ic, err := exec.NewICache(64, 4, 20)
		if err != nil {
			return err
		}
		ctrl.ICache = ic
		prog, err := asm.Assemble(scenario.src)
		if err != nil {
			return err
		}
		if err := ctrl.Load(prog); err != nil {
			return err
		}
		if err := ctrl.Run(0); err != nil {
			return err
		}
		fmt.Printf("%-28s %7d instrs, %6d fetch misses, hit rate %.4f, %d stall cycles\n",
			scenario.name, len(prog.Instrs), ic.Misses(), ic.HitRate(), ic.StallCycles())
	}
	return nil
}

func unrolledProgram(rounds int) string {
	var b strings.Builder
	b.WriteString("mov r15, 100\n")
	for i := 0; i < rounds; i++ {
		b.WriteString("QNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\n")
	}
	b.WriteString("halt\n")
	return b.String()
}

func printVLIW() error {
	// Issue-rate study on the AllXY program body: how much a VLIW front
	// end relaxes the single-stream issue bottleneck (§6).
	src := expt.AllXYProgram(expt.DefaultAllXYParams())
	prog, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %s\n", "width", "bundles", "instrs/bundle")
	for _, width := range []int{1, 2, 4, 8} {
		bp, err := exec.BundleProgram(prog, width)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-10d %.2f\n", width, len(bp.Bundles), bp.IssueRate())
	}
	fmt.Println("(paper §6: VLIW proposed to raise issue rate for more qubits)")
	fmt.Println("\nsustainable qubit count (continuous back-to-back gating):")
	for _, width := range []float64{1, 2, 4, 8} {
		m := exec.PrototypeIssueModel()
		m.IssueWidth = width
		fmt.Printf("  width %g: %s\n", width, m)
	}
	return nil
}

func defaultCost() aps2.CostModel { return aps2.DefaultCostModel() }
