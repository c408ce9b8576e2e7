package exec

import (
	"fmt"

	"quma/internal/clock"
	"quma/internal/isa"
	"quma/internal/microcode"
)

// DefaultMemWords is the default data-memory size in 64-bit words.
const DefaultMemWords = 4096

// DefaultMaxSteps bounds Run against runaway programs.
const DefaultMaxSteps = 200_000_000

// Controller is the execution controller: register file, data memory,
// program counter, the classical ALU, and the dispatch path that sends
// quantum instructions through the physical microcode unit into the QMB.
//
// Timing domains: the controller executes instructions "as fast as
// possible" (each Step fills queues without advancing the deterministic
// clock). The deterministic domain is drained lazily — whenever a
// classical instruction needs a register that a pending measurement
// discrimination will write, or when the program halts. This mirrors the
// hardware, where instruction execution runs ahead during waits and only
// feedback reads synchronize the two domains.
type Controller struct {
	Regs [isa.NumRegs]int64
	Mem  []int64
	// HostMem is the shared region the host CPU and the quantum
	// coprocessor exchange data through (hld/hst) — the heterogeneous-
	// platform extension of the paper's Section 6.
	HostMem []int64
	PC      int

	// CS is the Q control store used by the physical microcode unit.
	CS *microcode.ControlStore
	// QMB is the quantum microinstruction buffer fed by quantum
	// instructions.
	QMB *QMB
	// ICache, when non-nil, records every instruction fetch through the
	// quantum instruction cache model (Figures 6/7).
	ICache *ICache

	prog   *isa.Program
	halted bool
	// expanded is the reused buffer the physical microcode unit expands
	// each quantum instruction into.
	expanded []isa.Instruction
	// Steps counts executed instructions.
	Steps uint64
	// pendingMD counts queued MD events per destination register; reads
	// of such registers force a drain.
	pendingMD [isa.NumRegs]int

	// Replay-safety tracking (consumed by internal/replay). The engine
	// replays only the quantum event schedule of a recorded shot, so a
	// program is replayable only if its classical execution can never
	// change the schedule or depend on per-shot state. Two taints are
	// tracked per register:
	//
	//   - tainted: the value derives from a measurement write-back
	//     (WriteReg). Any read of a tainted register is feedback — the
	//     defining unsafe pattern.
	//   - everWritten vs writtenThisRun: a register written in a previous
	//     program run (Load resets writtenThisRun, not everWritten) may
	//     hold cross-shot state; reading it before rewriting it makes
	//     behaviour shot-dependent. Never-written registers are constant
	//     zero and safe.
	//
	// Data-memory and host-memory loads are conservatively unsafe: their
	// cells can carry cross-shot state and are not tracked per address.
	tainted        [isa.NumRegs]bool
	everWritten    [isa.NumRegs]bool
	writtenThisRun [isa.NumRegs]bool
	unsafeReason   string
}

// NewController returns a controller wired to the given control store and
// QMB, with zeroed registers and DefaultMemWords words of data memory.
func NewController(cs *microcode.ControlStore, qmb *QMB) *Controller {
	return &Controller{
		CS:      cs,
		QMB:     qmb,
		Mem:     make([]int64, DefaultMemWords),
		HostMem: make([]int64, 256),
	}
}

// Reset returns the controller to its just-constructed state in place:
// registers, data memory and host memory zeroed, no program loaded, no
// instruction cache, step count and replay-safety tracking cleared. The
// memory buffers, control store and QMB are kept; the QMB is not reset
// here (its owner resets it).
func (c *Controller) Reset() {
	c.Regs = [isa.NumRegs]int64{}
	clear(c.Mem)
	clear(c.HostMem)
	c.PC = 0
	c.ICache = nil
	c.prog = nil
	c.halted = false
	c.Steps = 0
	c.pendingMD = [isa.NumRegs]int{}
	c.ResetReplayTracking()
}

// Load installs a program and resets PC and halt state (registers and
// memory are preserved, as on the real box where the PC uploads programs
// without clearing data).
func (c *Controller) Load(p *isa.Program) error {
	// Re-loading the same immutable program (the engine's shot loop) skips
	// re-validation.
	if p != c.prog {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	c.prog = p
	c.PC = 0
	c.halted = false
	c.writtenThisRun = [isa.NumRegs]bool{}
	return nil
}

// Halted reports whether the program has stopped.
func (c *Controller) Halted() bool { return c.halted }

// WriteReg writes a register (used by the MD fire handler for measurement
// write-back) and retires one pending-MD marker for it. The register is
// marked measurement-tainted for replay-safety detection.
func (c *Controller) WriteReg(r isa.Reg, v int64) {
	c.Regs[r] = v
	c.tainted[r] = true
	c.everWritten[r] = true
	c.writtenThisRun[r] = true
	if c.pendingMD[r] > 0 {
		c.pendingMD[r]--
	}
}

// setReg is the classical write-back path: the destination value is a
// deterministic function of values already vetted by readReg, so it clears
// the measurement taint.
func (c *Controller) setReg(r isa.Reg, v int64) {
	c.Regs[r] = v
	c.tainted[r] = false
	c.everWritten[r] = true
	c.writtenThisRun[r] = true
}

// ReplayUnsafeReason returns why the program(s) executed since the last
// ResetReplayTracking cannot be replayed from a recorded schedule, or ""
// if no unsafe pattern was observed. The detection is conservative: it
// can flag safe programs (and the engine then falls back to full
// simulation), never the reverse.
func (c *Controller) ReplayUnsafeReason() string { return c.unsafeReason }

// ResetReplayTracking clears all replay-safety state; the replay engine
// calls it once before its first shot.
func (c *Controller) ResetReplayTracking() {
	c.tainted = [isa.NumRegs]bool{}
	c.everWritten = [isa.NumRegs]bool{}
	c.writtenThisRun = [isa.NumRegs]bool{}
	c.unsafeReason = ""
}

// drain runs the deterministic domain to exhaustion.
func (c *Controller) drain() error {
	if !c.QMB.TC.Started() {
		c.QMB.TC.Start()
	}
	_, err := c.QMB.TC.Drain()
	return err
}

// syncIfRead drains the timing domain if register r has a pending
// measurement write — the feedback synchronization point. It also feeds
// the replay-safety detector: consuming a measurement-derived value, or a
// value carried over from a previous program run, makes the program
// unsafe to schedule-replay.
func (c *Controller) syncIfRead(r isa.Reg) error {
	if c.pendingMD[r] > 0 {
		if err := c.drain(); err != nil {
			return err
		}
	}
	// Only the first reason is kept (and formatted), so a program already
	// known to be unsafe pays nothing more per read.
	if c.unsafeReason != "" {
		return nil
	}
	if c.tainted[r] {
		c.unsafeReason = fmt.Sprintf("instruction at PC %d consumed measurement result in %s", c.PC, r)
	} else if c.everWritten[r] && !c.writtenThisRun[r] {
		c.unsafeReason = fmt.Sprintf("instruction at PC %d consumed cross-shot state in %s", c.PC, r)
	}
	return nil
}

// Step executes one instruction. Quantum instructions are expanded by the
// physical microcode unit and submitted to the QMB; classical
// instructions retire immediately.
func (c *Controller) Step() error {
	if c.prog == nil {
		return fmt.Errorf("exec: no program loaded")
	}
	if c.halted {
		return fmt.Errorf("exec: stepping a halted controller")
	}
	if c.PC < 0 || c.PC >= len(c.prog.Instrs) {
		return fmt.Errorf("exec: PC %d outside program", c.PC)
	}
	if c.ICache != nil {
		c.ICache.Fetch(c.PC)
	}
	target, err := c.execute(c.prog.Instrs[c.PC])
	if err != nil {
		return err
	}
	if target >= 0 {
		c.PC = target
	} else {
		c.PC++
	}
	return nil
}

// execute is the per-instruction datapath shared by Step and the VLIW
// issue slots: it retires in and returns the branch target, or -1 when
// control falls through. c.PC only labels diagnostics here.
func (c *Controller) execute(in isa.Instruction) (int, error) {
	c.Steps++
	target := -1
	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.halted = true
		if err := c.drain(); err != nil {
			return -1, err
		}
	case isa.OpMov:
		c.setReg(in.Rd, in.Imm)
	case isa.OpMovReg:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		c.setReg(in.Rd, c.Regs[in.Rs])
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		if err := c.syncIfRead(in.Rt); err != nil {
			return -1, err
		}
		a, b := c.Regs[in.Rs], c.Regs[in.Rt]
		switch in.Op {
		case isa.OpAdd:
			c.setReg(in.Rd, a+b)
		case isa.OpSub:
			c.setReg(in.Rd, a-b)
		case isa.OpAnd:
			c.setReg(in.Rd, a&b)
		case isa.OpOr:
			c.setReg(in.Rd, a|b)
		case isa.OpXor:
			c.setReg(in.Rd, a^b)
		}
	case isa.OpAddi:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		c.setReg(in.Rd, c.Regs[in.Rs]+in.Imm)
	case isa.OpLoad:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		addr := c.Regs[in.Rs] + in.Imm
		if addr < 0 || addr >= int64(len(c.Mem)) {
			return -1, fmt.Errorf("exec: load address %d out of range at PC %d", addr, c.PC)
		}
		// Memory cells are not tracked per address, so any load may be
		// consuming cross-shot state.
		if c.unsafeReason == "" {
			c.unsafeReason = fmt.Sprintf("data-memory load at PC %d", c.PC)
		}
		c.setReg(in.Rd, c.Mem[addr])
	case isa.OpStore:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		if err := c.syncIfRead(in.Rd); err != nil {
			return -1, err
		}
		addr := c.Regs[in.Rd] + in.Imm
		if addr < 0 || addr >= int64(len(c.Mem)) {
			return -1, fmt.Errorf("exec: store address %d out of range at PC %d", addr, c.PC)
		}
		c.Mem[addr] = c.Regs[in.Rs]
	case isa.OpBeq, isa.OpBne, isa.OpBlt:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		if err := c.syncIfRead(in.Rt); err != nil {
			return -1, err
		}
		a, b := c.Regs[in.Rs], c.Regs[in.Rt]
		taken := false
		switch in.Op {
		case isa.OpBeq:
			taken = a == b
		case isa.OpBne:
			taken = a != b
		case isa.OpBlt:
			taken = a < b
		}
		if taken {
			target = int(in.Imm)
		}
	case isa.OpJmp:
		target = int(in.Imm)

	case isa.OpHostLoad:
		if in.Imm < 0 || in.Imm >= int64(len(c.HostMem)) {
			return -1, fmt.Errorf("exec: host load address %d out of range at PC %d", in.Imm, c.PC)
		}
		if c.unsafeReason == "" {
			c.unsafeReason = fmt.Sprintf("host-memory load at PC %d", c.PC)
		}
		c.setReg(in.Rd, c.HostMem[in.Imm])
	case isa.OpHostStore:
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		if in.Imm < 0 || in.Imm >= int64(len(c.HostMem)) {
			return -1, fmt.Errorf("exec: host store address %d out of range at PC %d", in.Imm, c.PC)
		}
		c.HostMem[in.Imm] = c.Regs[in.Rs]

	case isa.OpQNopReg, isa.OpWaitReg:
		// Register-timed wait: the interval is read at issue time, which
		// is what lets one static instruction produce run-time-computed
		// timing (paper Section 5.3.2).
		if err := c.syncIfRead(in.Rs); err != nil {
			return -1, err
		}
		v := c.Regs[in.Rs]
		if v < 0 {
			return -1, fmt.Errorf("exec: %s read negative interval %d", in, v)
		}
		c.QMB.Wait(clock.Cycle(v))

	default:
		if !in.Op.IsQuantum() {
			return -1, fmt.Errorf("exec: unhandled opcode %s at PC %d", in.Op, c.PC)
		}
		var err error
		c.expanded, err = c.CS.AppendExpand(c.expanded[:0], in)
		if err != nil {
			return -1, fmt.Errorf("exec: PC %d: %w", c.PC, err)
		}
		for _, mi := range c.expanded {
			if mi.Op == isa.OpMD {
				c.pendingMD[mi.Rd]++
			}
			if err := c.QMB.Submit(mi); err != nil {
				return -1, fmt.Errorf("exec: PC %d: %w", c.PC, err)
			}
		}
	}
	return target, nil
}

// Run executes until halt or maxSteps instructions (DefaultMaxSteps when
// maxSteps <= 0).
func (c *Controller) Run(maxSteps uint64) error {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	start := c.Steps
	for !c.halted {
		if c.Steps-start >= maxSteps {
			return fmt.Errorf("exec: exceeded %d steps without halting", maxSteps)
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
