package exec

import (
	"fmt"
	"strings"
	"testing"

	"quma/internal/asm"
	"quma/internal/clock"
	"quma/internal/isa"
	"quma/internal/microcode"
)

func TestBundleProgramWidthValidation(t *testing.T) {
	p := asm.MustAssemble("halt")
	if _, err := BundleProgram(p, 0); err == nil {
		t.Error("width 0 must fail")
	}
	if _, err := BundleProgram(p, 17); err == nil {
		t.Error("width 17 must fail")
	}
}

func TestBundlePacksIndependentInstructions(t *testing.T) {
	p := asm.MustAssemble(`
mov r1, 1
mov r2, 2
mov r3, 3
mov r4, 4
halt
`)
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 independent movs pack into one bundle; halt is its own.
	if len(bp.Bundles) != 2 {
		t.Fatalf("bundles = %d, want 2: %v", len(bp.Bundles), bp.Bundles)
	}
	if len(bp.Bundles[0]) != 4 {
		t.Errorf("first bundle has %d slots", len(bp.Bundles[0]))
	}
	if got := bp.IssueRate(); got != 2.5 {
		t.Errorf("issue rate = %v, want 2.5 (5 instrs / 2 bundles)", got)
	}
}

func TestBundleBreaksOnRAW(t *testing.T) {
	p := asm.MustAssemble(`
mov r1, 1
addi r2, r1, 1
halt
`)
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// addi reads r1 written by mov: must start a new bundle.
	if len(bp.Bundles[0]) != 1 {
		t.Errorf("RAW not split: first bundle %v", bp.Bundles[0])
	}
}

func TestBundleBreaksOnWAW(t *testing.T) {
	p := asm.MustAssemble("mov r1, 1\nmov r1, 2\nhalt")
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Bundles[0]) != 1 {
		t.Errorf("WAW not split: %v", bp.Bundles[0])
	}
}

func TestBundleBranchTerminatesAndLabelStarts(t *testing.T) {
	p := asm.MustAssemble(`
mov r1, 0
mov r2, 3
Loop:
addi r1, r1, 1
bne r1, r2, Loop
halt
`)
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find the bundle containing the bne: it must be the last slot, and
	// its target must be the bundle starting at the label.
	for bi, b := range bp.Bundles {
		for si, in := range b {
			if in.Op == isa.OpBne {
				if si != len(b)-1 {
					t.Error("branch must be the bundle's last slot")
				}
				tgt := int(in.Imm)
				if tgt < 0 || tgt >= len(bp.Bundles) {
					t.Fatalf("branch target %d outside bundles", tgt)
				}
				if bp.Bundles[tgt][0].Op != isa.OpAddi {
					t.Errorf("bundle %d branch target %d starts with %v", bi, tgt, bp.Bundles[tgt][0])
				}
			}
		}
	}
}

func TestBundleQuantumInstructionsPack(t *testing.T) {
	p := asm.MustAssemble(`
Pulse {q0}, X180
Wait 4
Pulse {q1}, Y180
Wait 4
halt
`)
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Bundles[0]) != 4 {
		t.Errorf("quantum stream should pack: %v", bp.Bundles[0])
	}
}

func TestBundleMDWriteIsHazard(t *testing.T) {
	p := asm.MustAssemble(`
MD {q0}, r7
add r9, r9, r7
halt
`)
	bp, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Bundles[0]) != 1 {
		t.Error("read of MD destination must not share the bundle")
	}
}

// runBoth runs the same program on a scalar controller and on a VLIW
// controller of the given width, each with an instruction cache
// installed, and returns both controllers and their pulse logs.
func runBoth(t *testing.T, src string, width int) (scalar, vliw *Controller, logS, logV *[]string) {
	t.Helper()
	build := func() (*Controller, *[]string) {
		log := &[]string{}
		qmb := NewQMB(
			func(e PulseEvent, td clock.Cycle) {
				*log = append(*log, fmt.Sprintf("%d:%s:%s", td, e.UOp, e.Qubits))
			}, nil, nil)
		c := NewController(microcode.StandardControlStore(), qmb)
		qmb.MDQ.OnFire = func(e MDEvent, td clock.Cycle) { c.WriteReg(e.Rd, 1) }
		ic, err := NewICache(4, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.ICache = ic
		return c, log
	}
	p := asm.MustAssemble(src)

	s, logS0 := build()
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}

	v, logV0 := build()
	bp, err := BundleProgram(p, width)
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVLIWController(v, bp)
	if err := vc.Run(0); err != nil {
		t.Fatal(err)
	}
	if !vc.Halted() {
		t.Fatal("VLIW did not halt")
	}
	return s, v, logS0, logV0
}

func TestVLIWEquivalentToScalar(t *testing.T) {
	src := `
mov r15, 100
mov r1, 0
mov r2, 5
mov r9, 0
Loop:
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
add r9, r9, r7
addi r1, r1, 1
bne r1, r2, Loop
halt
`
	for _, width := range []int{1, 2, 4, 8} {
		s, v, logS, logV := runBoth(t, src, width)
		if s.Regs != v.Regs {
			t.Errorf("width %d: register files differ:\n%v\n%v", width, s.Regs, v.Regs)
		}
		// A halt slot halts the wrapped controller, as a scalar halt does.
		if !s.Halted() || !v.Halted() {
			t.Errorf("width %d: Halted() scalar %v, VLIW's controller %v; want both true", width, s.Halted(), v.Halted())
		}
		if s.Steps != v.Steps {
			t.Errorf("width %d: retired %d instructions, scalar %d", width, v.Steps, s.Steps)
		}
		// The cache models the scalar instruction stream; issue slots run
		// the datapath without a fetch.
		if s.ICache.Fetches() != s.Steps || v.ICache.Fetches() != 0 {
			t.Errorf("width %d: fetches scalar %d (of %d steps), VLIW %d; want every scalar step and no VLIW fetch",
				width, s.ICache.Fetches(), s.Steps, v.ICache.Fetches())
		}
		if len(*logS) != len(*logV) {
			t.Fatalf("width %d: pulse counts differ %d vs %d", width, len(*logS), len(*logV))
		}
		for i := range *logS {
			if (*logS)[i] != (*logV)[i] {
				t.Errorf("width %d: pulse %d: %s vs %s", width, i, (*logS)[i], (*logV)[i])
			}
		}
	}
}

func TestVLIWIssueRateImproves(t *testing.T) {
	// The AllXY round body (straight-line quantum stream) should pack
	// significantly better than width 1.
	src := `
Wait 40000
Pulse {q0}, I
Wait 4
Pulse {q0}, I
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`
	p := asm.MustAssemble(src)
	bp1, err := BundleProgram(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp4, err := BundleProgram(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bp1.IssueRate() != 1 {
		t.Errorf("width-1 issue rate = %v", bp1.IssueRate())
	}
	if bp4.IssueRate() < 2 {
		t.Errorf("width-4 issue rate = %v, want ≥ 2", bp4.IssueRate())
	}
}

func TestVLIWFeedbackStillSynchronizes(t *testing.T) {
	// The branch reads a pending-MD register: VLIW must still drain the
	// deterministic domain before deciding.
	src := `
mov r15, 100
mov r6, 1
QNopReg r15
MPG {q0}, 300
MD {q0}, r7
Wait 300
beq r7, r6, Done
Pulse {q0}, X180
Wait 4
Done:
halt
`
	_, v, _, logV := runBoth(t, src, 4)
	if v.Regs[7] != 1 {
		t.Fatalf("r7 = %d, want 1", v.Regs[7])
	}
	for _, l := range *logV {
		if l == "400:X180:{q0}" {
			t.Error("correction pulse must have been skipped under VLIW too")
		}
	}
}

func TestVLIWStepAfterHalt(t *testing.T) {
	p := asm.MustAssemble("halt")
	bp, err := BundleProgram(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	qmb := NewQMB(nil, nil, nil)
	vc := NewVLIWController(NewController(microcode.StandardControlStore(), qmb), bp)
	if err := vc.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := vc.StepBundle(); err == nil {
		t.Error("stepping after halt must fail")
	}
}

func TestVLIWRunawayGuard(t *testing.T) {
	p := asm.MustAssemble("Loop:\njmp Loop")
	bp, err := BundleProgram(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	qmb := NewQMB(nil, nil, nil)
	vc := NewVLIWController(NewController(microcode.StandardControlStore(), qmb), bp)
	if err := vc.Run(100); err == nil {
		t.Error("expected bundle-limit error")
	}
}

// TestVLIWDiagnosticsNameProgramPC pins the PC a VLIW slot reports: the
// slot's original instruction index, as on the scalar controller. The
// failing load and the feedback branch sit in non-first slots at widths
// 2 and 4, so a bundle-relative or stale PC would show.
func TestVLIWDiagnosticsNameProgramPC(t *testing.T) {
	src := `
mov r4, 9999
addi r1, r4, 1
mov r2, 2
mov r3, 3
load r5, r4[0]
halt
`
	p := asm.MustAssemble(src)
	s := NewController(microcode.StandardControlStore(), NewQMB(nil, nil, nil))
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	want := s.Run(0)
	if want == nil || !strings.Contains(want.Error(), "at PC 4") {
		t.Fatalf("scalar error = %v, want the load at PC 4", want)
	}
	for _, width := range []int{1, 2, 4} {
		bp, err := BundleProgram(p, width)
		if err != nil {
			t.Fatal(err)
		}
		vc := NewVLIWController(NewController(microcode.StandardControlStore(), NewQMB(nil, nil, nil)), bp)
		if err := vc.Run(0); err == nil || err.Error() != want.Error() {
			t.Errorf("width %d: error %v, want %q", width, err, want)
		}
	}

	feedback := `
mov r15, 100
mov r6, 1
QNopReg r15
MPG {q0}, 300
MD {q0}, r7
Wait 300
mov r1, 0
beq r7, r6, Done
Pulse {q0}, X180
Wait 4
Done:
halt
`
	for _, width := range []int{1, 2, 4} {
		s, v, _, _ := runBoth(t, feedback, width)
		got, want := v.ReplayUnsafeReason(), s.ReplayUnsafeReason()
		if !strings.Contains(want, "PC 7") || got != want {
			t.Errorf("width %d: replay-unsafe reason %q, scalar %q (want the branch at PC 7)", width, got, want)
		}
	}
}
