package exec

import (
	"fmt"

	"quma/internal/isa"
)

// VLIW support — the paper's Section 6 scalability proposal and stated
// future work: "A Very-Long-Instruction-Word (VLIW) architecture can be
// adopted to provide much larger instruction issue rate" when more
// qubits demand a higher operation output rate than a single instruction
// stream can sustain.
//
// The implementation has two parts: a static bundler that packs an
// ordinary program into hazard-free bundles of up to Width slots, and a
// VLIWController that issues one bundle per issue step. Bundles are
// constructed so that executing their slots sequentially is
// indistinguishable from parallel issue:
//
//   - no slot reads a register written by an earlier slot (RAW);
//   - no two slots write the same register (WAW);
//   - no two slots access data memory when either access is a store;
//   - branches and halt terminate a bundle (and are its last slot);
//   - branch targets (labels) start a new bundle.
//
// Quantum instructions keep their program order inside a bundle, which
// the QMB requires; the win is that one issue step now pushes several
// micro-operations toward the queues.

// Bundle is one VLIW issue packet.
type Bundle []isa.Instruction

// BundledProgram is a program scheduled into bundles.
type BundledProgram struct {
	Width   int
	Bundles []Bundle
	// bundleOf maps original instruction index → bundle index, used to
	// re-target branches.
	bundleOf []int
	// NumInstrs is the original instruction count.
	NumInstrs int
}

// IssueRate returns the achieved instructions-per-bundle — the paper's
// figure of merit for VLIW (1.0 means no packing).
func (bp *BundledProgram) IssueRate() float64 {
	if len(bp.Bundles) == 0 {
		return 0
	}
	return float64(bp.NumInstrs) / float64(len(bp.Bundles))
}

// regUse summarizes the registers an instruction reads and writes, for
// hazard checks.
func regUse(in isa.Instruction) (reads, writes []isa.Reg, memRead, memWrite bool) {
	switch in.Op {
	case isa.OpMov:
		writes = []isa.Reg{in.Rd}
	case isa.OpMovReg, isa.OpAddi:
		reads = []isa.Reg{in.Rs}
		writes = []isa.Reg{in.Rd}
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor:
		reads = []isa.Reg{in.Rs, in.Rt}
		writes = []isa.Reg{in.Rd}
	case isa.OpLoad:
		reads = []isa.Reg{in.Rs}
		writes = []isa.Reg{in.Rd}
		memRead = true
	case isa.OpStore:
		reads = []isa.Reg{in.Rs, in.Rd}
		memWrite = true
	case isa.OpHostLoad:
		writes = []isa.Reg{in.Rd}
		memRead = true
	case isa.OpHostStore:
		reads = []isa.Reg{in.Rs}
		memWrite = true
	case isa.OpBeq, isa.OpBne, isa.OpBlt:
		reads = []isa.Reg{in.Rs, in.Rt}
	case isa.OpQNopReg, isa.OpWaitReg:
		reads = []isa.Reg{in.Rs}
	case isa.OpMD, isa.OpMeasure:
		// The asynchronous measurement write-back is a register write
		// for hazard purposes.
		writes = []isa.Reg{in.Rd}
	}
	return
}

// BundleProgram statically schedules p into bundles of at most width
// slots under the hazard rules above.
func BundleProgram(p *isa.Program, width int) (*BundledProgram, error) {
	if width < 1 || width > 16 {
		return nil, fmt.Errorf("exec: VLIW width %d out of range 1..16", width)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	isTarget := make([]bool, len(p.Instrs)+1)
	for _, idx := range p.Labels {
		isTarget[idx] = true
	}
	for _, in := range p.Instrs {
		if in.Op.IsBranch() {
			isTarget[in.Imm] = true
		}
	}

	bp := &BundledProgram{Width: width, NumInstrs: len(p.Instrs), bundleOf: make([]int, len(p.Instrs))}
	var cur Bundle
	written := map[isa.Reg]bool{}
	readSet := map[isa.Reg]bool{}
	memTouched := false

	flush := func() {
		if len(cur) > 0 {
			bp.Bundles = append(bp.Bundles, cur)
			cur = nil
			written = map[isa.Reg]bool{}
			readSet = map[isa.Reg]bool{}
			memTouched = false
		}
	}
	for i, in := range p.Instrs {
		if isTarget[i] {
			flush()
		}
		reads, writes, mr, mw := regUse(in)
		hazard := false
		for _, r := range reads {
			if written[r] {
				hazard = true // RAW
			}
		}
		for _, w := range writes {
			if written[w] || readSet[w] {
				hazard = true // WAW / WAR (WAR kept conservative: the
				// sequential model is equivalent either way, but
				// forbidding it keeps bundles debuggable)
			}
		}
		if (mw && memTouched) || (mr && memTouched) {
			hazard = true
		}
		if len(cur) >= width || hazard {
			flush()
		}
		bp.bundleOf[i] = len(bp.Bundles)
		cur = append(cur, in)
		for _, r := range reads {
			readSet[r] = true
		}
		for _, w := range writes {
			written[w] = true
		}
		memTouched = memTouched || mr || mw
		if in.Op.IsBranch() || in.Op == isa.OpHalt {
			flush()
		}
	}
	flush()

	// Re-target branches to bundle indices.
	for bi := range bp.Bundles {
		for si := range bp.Bundles[bi] {
			in := &bp.Bundles[bi][si]
			if in.Op.IsBranch() {
				in.Imm = int64(bp.bundleOf[in.Imm])
			}
		}
	}
	return bp, nil
}

// VLIWController issues one bundle per step through the scalar
// controller's datapath (Controller.execute): every slot retires as Step
// would retire it, and a halt slot halts the wrapped controller. Bundles
// are not fetched through the controller's ICache, which models the
// scalar instruction stream.
type VLIWController struct {
	*Controller
	BP *BundledProgram
	// BPC is the bundle program counter.
	BPC int
	// BundlesIssued counts issue steps.
	BundlesIssued uint64
}

// NewVLIWController wraps a scalar controller (its program slot is
// unused; the bundled program drives execution) and clears its halt
// state.
func NewVLIWController(c *Controller, bp *BundledProgram) *VLIWController {
	c.halted = false
	return &VLIWController{Controller: c, BP: bp}
}

// StepBundle issues the current bundle: every slot executes with the
// hazard guarantees making sequential slot execution equivalent to
// parallel issue. Branches (always the last slot) redirect the bundle
// PC.
func (v *VLIWController) StepBundle() error {
	if v.halted {
		return fmt.Errorf("exec: stepping a halted VLIW controller")
	}
	if v.BPC < 0 || v.BPC >= len(v.BP.Bundles) {
		return fmt.Errorf("exec: bundle PC %d outside program", v.BPC)
	}
	bundle := v.BP.Bundles[v.BPC]
	next := v.BPC + 1
	v.BundlesIssued++
	for _, in := range bundle {
		taken, err := v.execute(in)
		if err != nil {
			return err
		}
		if taken >= 0 {
			next = taken
		}
	}
	v.BPC = next
	return nil
}

// Run issues bundles until halt or maxBundles.
func (v *VLIWController) Run(maxBundles uint64) error {
	if maxBundles == 0 {
		maxBundles = DefaultMaxSteps
	}
	start := v.BundlesIssued
	for !v.halted {
		if v.BundlesIssued-start >= maxBundles {
			return fmt.Errorf("exec: exceeded %d bundles without halting", maxBundles)
		}
		if err := v.StepBundle(); err != nil {
			return err
		}
	}
	return nil
}
