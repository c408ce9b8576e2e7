package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/core"
	"quma/internal/exec"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// resetProbeSrc exercises pulses, decoherence, measurement, the data
// collector and the digital outputs in a short multi-round loop, and
// folds a data-memory and a host-memory cell into its tally, so state a
// reset failed to clear shows up in the results.
const resetProbeSrc = `
mov r15, 4000
mov r1, 0
mov r2, 20
mov r9, 0
mov r3, 0
load r4, r3[5]
add r9, r9, r4
hld r4, 7
add r9, r9, r4
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
add r9, r9, r7
addi r1, r1, 1
bne r1, r2, Loop
halt
`

// resetDirtySrc leaves registers, a data-memory cell, a host-memory
// cell and digital-output intervals behind.
const resetDirtySrc = `
mov r3, 0
mov r5, 1000
store r5, r3[5]
hst r5, 7
mov r12, -3
Pulse {q0}, X180
Wait 4
Measure q0, r8
Wait 400
halt
`

// resetPhaseSrc ends on pulses at each of the four SSB phases of the
// pulse grid (the -50 MHz sideband repeats every 20 samples, 4 cycles),
// with no measurement after them, so the final state bits expose the
// exact rotation matrices the machine applied.
const resetPhaseSrc = `
Wait 3
Pulse {q0}, X90
Wait 5
Pulse {q0}, Y90
Wait 6
Pulse {q0}, X90
Wait 7
Pulse {q0}, Y180
Wait 4
halt
`

// resetOtherPhaseSrc plays the same codewords as resetPhaseSrc at the
// same phases but at other absolute times, filling the rotation cache
// with entries a fresh machine would first meet elsewhere.
const resetOtherPhaseSrc = `
mov r15, 4001
QNopReg r15
Pulse {q0}, X90
Wait 5
Pulse {q0}, X90
Wait 6
Pulse {q0}, Y90
Wait 7
Pulse {q0}, Y90
Wait 5
Pulse {q0}, Y180
Wait 6
Pulse {q0}, X90
Wait 7
Pulse {q0}, Y180
Wait 5
Pulse {q0}, Y180
Wait 4
halt
`

// resetScenarios each leave a machine in a different dirty state that
// ResetState must clear; construction never leaves any of it behind.
var resetScenarios = []struct {
	name  string
	dirty func(t *testing.T, m *core.Machine)
}{
	{"probe-program", func(t *testing.T, m *core.Machine) {
		if err := m.RunAssembly(resetProbeSrc); err != nil {
			t.Fatal(err)
		}
	}},
	{"registers-memory-digital", func(t *testing.T, m *core.Machine) {
		if err := m.RunAssembly(resetDirtySrc); err != nil {
			t.Fatal(err)
		}
		if m.Digital.Intervals(0) == nil || m.Controller.Mem[5] == 0 || m.Controller.HostMem[7] == 0 {
			t.Fatal("dirtying program left no digital interval or memory write")
		}
	}},
	{"pending-queues", func(t *testing.T, m *core.Machine) {
		// Stop mid-program: events sit in the QMB/timing queues, a time
		// point is open and an interval is accumulating.
		p := asm.MustAssemble("Pulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nWait 12\nhalt")
		if err := m.Controller.Load(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := m.Controller.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.QMB.TC.PendingEvents() == 0 || m.QMB.PendingInterval() == 0 {
			t.Fatal("no pending queue entries left behind")
		}
	}},
	{"preempted-lead-shot", func(t *testing.T, m *core.Machine) {
		// The replay engine's lead shots, canceled after the first one:
		// the run returns mid-timeline with its recorder detached.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := replay.Run(ctx, m, asm.MustAssemble(resetDirtySrc), replay.Options{
			Shots:  10,
			OnShot: func(int, []replay.MD) { cancel() },
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("lead shot not preempted: %v", err)
		}
	}},
	{"other-program", func(t *testing.T, m *core.Machine) {
		// Another program pulsed at the probe's phases but at other
		// absolute times; the rotation cache survives the reset.
		if err := m.RunAssembly(resetOtherPhaseSrc); err != nil {
			t.Fatal(err)
		}
	}},
	{"icache", func(t *testing.T, m *core.Machine) {
		ic, err := exec.NewICache(4, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		m.Controller.ICache = ic
		if err := m.RunAssembly(resetProbeSrc); err != nil {
			t.Fatal(err)
		}
	}},
}

// resetFingerprint renders everything a freshly constructed machine
// starts with and a program run changes: the architectural state of the
// controller, QMB and timing controller, the logs, and the counters.
func resetFingerprint(m *core.Machine) string {
	c, q := m.Controller, m.QMB
	var b strings.Builder
	fmt.Fprintf(&b, "regs=%v pc=%d halted=%v steps=%d icache=%v unsafe=%q\n",
		c.Regs, c.PC, c.Halted(), c.Steps, c.ICache != nil, c.ReplayUnsafeReason())
	fmt.Fprintf(&b, "mem=%v\nhost=%v\n", c.Mem, c.HostMem)
	fmt.Fprintf(&b, "labels=%d interval=%d started=%v td=%d pending=%d tq=%v\n",
		q.LabelsIssued(), q.PendingInterval(), q.TC.Started(), q.TC.TD(), q.TC.PendingEvents(), q.TC.TQ.Snapshot())
	fmt.Fprintf(&b, "twoq=%v\n", q.TwoQubitOps)
	for ch := 0; ch < awg.NumDigitalOutputs; ch++ {
		fmt.Fprintf(&b, "digital%d=%v ", ch, m.Digital.Intervals(ch))
	}
	for i, ctpg := range m.CTPG {
		fmt.Fprintf(&b, "\nplaybacks%d=%d", i, len(ctpg.Playbacks()))
	}
	fmt.Fprintf(&b, "\npulses=%d measurements=%d trace=%d", m.PulsesPlayed, m.Measurements, len(m.Trace()))
	if m.Collector != nil {
		fmt.Fprintf(&b, " collector=%v/%v", m.Collector.Sums(), m.Collector.Counts())
	}
	for q := 0; q < m.Cfg.NumQubits; q++ {
		fmt.Fprintf(&b, " p%d=%x rho%d=", q, math.Float64bits(m.State.ProbExcited(q)), q)
		for _, v := range m.State.ReducedQubit(q).Data {
			fmt.Fprintf(&b, "%x,%x;", math.Float64bits(real(v)), math.Float64bits(imag(v)))
		}
	}
	return b.String()
}

// TestResetStateMatchesFreshMachine is the Machine.ResetState contract: a
// reset machine behaves bit-identically to a freshly constructed one with
// the same config and seed, on both backends, whatever the machine did
// under a different seed before — ran a program, left registers, memory
// and digital-output intervals behind, stopped with events pending in
// the queues, had replay's lead shots preempted by cancellation, or had
// an instruction cache installed. ResetState clears in place, keeping
// buffers, so each of these is state it must clear rather than drop.
func TestResetStateMatchesFreshMachine(t *testing.T) {
	for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		t.Run(string(backend), func(t *testing.T) {
			for _, sc := range resetScenarios {
				t.Run(sc.name, func(t *testing.T) {
					cfg := core.DefaultConfig()
					cfg.Backend = backend
					cfg.CollectK = 1
					cfg.Seed = 42

					fresh, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					dirty := cfg
					dirty.Seed = 99
					reused, err := core.New(dirty)
					if err != nil {
						t.Fatal(err)
					}
					sc.dirty(t, reused)
					reused.ResetState(42)
					if f, r := resetFingerprint(fresh), resetFingerprint(reused); f != r {
						t.Fatalf("after reset:\nfresh:  %s\nreused: %s", f, r)
					}

					for _, src := range []string{resetProbeSrc, resetPhaseSrc} {
						for _, m := range []*core.Machine{fresh, reused} {
							if err := m.RunAssembly(src); err != nil {
								t.Fatal(err)
							}
						}
						if f, r := resetFingerprint(fresh), resetFingerprint(reused); f != r {
							t.Fatalf("after %q:\nfresh:  %s\nreused: %s", src, f, r)
						}
					}
				})
			}
		})
	}
}

// TestResetStateKeepsCalibration: LUT content and qubit-parameter caches
// survive a reset (that is the point of reusing the machine), while the
// playback log and trace are cleared.
func TestResetStateKeepsCalibration(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.TraceEvents = true
	cfg.Qubit = []qphys.QubitParams{qphys.DefaultQubitParams()}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunAssembly("Wait 8\nPulse {q0}, X180\nWait 4\nhalt"); err != nil {
		t.Fatal(err)
	}
	if len(m.CTPG[0].Playbacks()) == 0 || len(m.Trace()) == 0 {
		t.Fatal("probe program left no playbacks/trace")
	}
	before := m.MemoryFootprintBytes()
	m.ResetState(7)
	if len(m.CTPG[0].Playbacks()) != 0 {
		t.Error("playback log not cleared")
	}
	if len(m.Trace()) != 0 {
		t.Error("trace not cleared")
	}
	if got := m.MemoryFootprintBytes(); got != before {
		t.Errorf("LUT footprint changed across reset: %d -> %d", before, got)
	}
	if p := m.State.ProbExcited(0); p != 0 {
		t.Errorf("state not reset: P(|1>) = %v", p)
	}
}

// TestResetStateKeepsCustomUploads pins the documented caveat: LUT
// entries uploaded after construction survive a reset (reuse across
// points therefore requires unconditional per-point re-upload, as
// RunRabi does).
func TestResetStateKeepsCustomUploads(t *testing.T) {
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const cw = 8
	w, _, ok := m.CTPG[0].Lookup(0)
	if !ok {
		t.Fatal("library codeword 0 missing")
	}
	if err := m.UploadPulse(0, cw, "CUSTOM", w); err != nil {
		t.Fatal(err)
	}
	m.ResetState(5)
	if _, name, ok := m.CTPG[0].Lookup(cw); !ok || name != "CUSTOM" {
		t.Errorf("custom upload did not survive reset: ok=%v name=%q", ok, name)
	}
}

// TestTakeResetPoint pins the reset-point mark the replay engine reads
// before it replays a lead from the memo: New and ResetState set it,
// taking it clears it, RunProgram clears it, and a preset register or
// an installed instruction cache means the machine is no longer at its
// reset point.
func TestTakeResetPoint(t *testing.T) {
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !m.TakeResetPoint() {
		t.Fatal("a fresh machine must be at its reset point")
	}
	if m.TakeResetPoint() {
		t.Fatal("the mark must be taken only once")
	}
	m.ResetState(2)
	if err := m.RunAssembly("Pulse {q0}, X90\nWait 4\nhalt\n"); err != nil {
		t.Fatal(err)
	}
	if m.TakeResetPoint() {
		t.Fatal("RunProgram must clear the mark")
	}
	m.ResetState(3)
	m.Controller.Regs[4] = 1
	if m.TakeResetPoint() {
		t.Fatal("a preset register must clear the mark")
	}
	m.ResetState(4)
	ic, err := exec.NewICache(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Controller.ICache = ic
	if m.TakeResetPoint() {
		t.Fatal("an installed instruction cache must clear the mark")
	}
	m.ResetState(5)
	if !m.TakeResetPoint() {
		t.Fatal("ResetState must set the mark")
	}
}
