// Package isa defines QuMA's instruction set: the auxiliary classical
// instructions used for arithmetic and program flow, the quantum
// instructions of the QIS (technology-independent gates applied to
// qubits), and the QuMIS quantum microinstruction set of Table 6 (Wait,
// Pulse, MPG, MD) plus QNopReg, the register-timed wait of Algorithm 3.
//
// The combination of auxiliary classical instructions and QuMIS
// instructions is exactly what the paper's prototype loads into the
// quantum instruction cache; the higher-level QIS gate instructions
// (Apply, Measure, CNOT, …) are expanded by the physical microcode unit
// in package microcode.
package isa

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Reg names one of the 16 general-purpose registers r0–r15 of the
// execution controller's register file.
type Reg uint8

// NumRegs is the register-file size.
const NumRegs = 16

func (r Reg) String() string { return fmt.Sprintf("r%d", r) }

// Valid reports whether the register index is in range.
func (r Reg) Valid() bool { return r < NumRegs }

// MaxQubits is the widest qubit address the instruction set carries. The
// paper's control box has 8 digital outputs; the simulated box doubles
// the address width so trajectory-backend registers (which scale past the
// density-matrix wall) stay addressable.
const MaxQubits = 16

// QubitMask selects the qubits addressed by a horizontal quantum
// instruction — the paper's QAddr field. Bit q set means qubit q is
// targeted. Up to MaxQubits qubits; the 32-bit binary encoding keeps the
// paper's 8-bit QAddr field and rejects wider masks (see encode.go).
type QubitMask uint16

// MaskQ returns a mask selecting the given qubits.
func MaskQ(qubits ...int) QubitMask {
	var m QubitMask
	for _, q := range qubits {
		if q < 0 || q >= MaxQubits {
			panic(fmt.Sprintf("isa: qubit index %d out of range", q))
		}
		m |= 1 << q
	}
	return m
}

// Qubits returns the selected qubit indices in ascending order.
func (m QubitMask) Qubits() []int { return slices.Collect(m.All()) }

// All iterates the selected qubit indices in ascending order without
// allocating — the form the per-shot pipeline uses.
func (m QubitMask) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for rest := uint16(m); rest != 0; rest &= rest - 1 {
			if !yield(bits.TrailingZeros16(rest)) {
				return
			}
		}
	}
}

// Count returns the number of selected qubits.
func (m QubitMask) Count() int { return bits.OnesCount16(uint16(m)) }

// Contains reports whether qubit q is selected.
func (m QubitMask) Contains(q int) bool { return q >= 0 && q < MaxQubits && m&(1<<q) != 0 }

func (m QubitMask) String() string {
	qs := m.Qubits()
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = fmt.Sprintf("q%d", q)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Opcode enumerates every instruction of the combined set.
type Opcode uint8

const (
	// OpNop does nothing for one issue slot.
	OpNop Opcode = iota
	// OpMov writes an immediate into Rd: mov rd, imm.
	OpMov
	// OpMovReg copies Rs into Rd: movr rd, rs.
	OpMovReg
	// OpAdd is rd ← rs + rt.
	OpAdd
	// OpAddi is rd ← rs + imm.
	OpAddi
	// OpSub is rd ← rs − rt.
	OpSub
	// OpAnd is rd ← rs & rt.
	OpAnd
	// OpOr is rd ← rs | rt.
	OpOr
	// OpXor is rd ← rs ^ rt.
	OpXor
	// OpLoad reads data memory: load rd, rs[imm].
	OpLoad
	// OpStore writes data memory: store rs, rd[imm] (rd holds the base).
	OpStore
	// OpBeq branches to Imm (absolute instruction index after assembly)
	// when rs == rt.
	OpBeq
	// OpBne branches when rs != rt.
	OpBne
	// OpBlt branches when rs < rt (signed).
	OpBlt
	// OpJmp branches unconditionally.
	OpJmp
	// OpHalt stops the execution controller.
	OpHalt
	// OpHostLoad reads host shared memory: hld rd, imm. It is the data
	// exchange instruction the paper's Section 6 proposes for extending
	// QuMA into a heterogeneous platform ("adding extra data exchange
	// instructions to interact with the host CPU and the main memory").
	OpHostLoad
	// OpHostStore writes host shared memory: hst rs, imm.
	OpHostStore

	// OpApply is the QIS gate instruction: Apply gate, q. The physical
	// microcode unit expands it via the Q control store.
	OpApply
	// OpApply2 is the two-qubit QIS gate instruction: Apply2 gate, qa, qb
	// (e.g. CNOT qt, qc in the paper's Algorithm 2 discussion).
	OpApply2
	// OpMeasure is the QIS measurement: Measure q, rd. It expands into
	// MPG + MD microinstructions.
	OpMeasure

	// OpQNopReg stalls the quantum timeline by the number of cycles held
	// in Rs, read at issue time: QNopReg rs (Algorithm 3). It decodes
	// into a Wait with a runtime-computed interval.
	OpQNopReg
	// OpWait is the QuMIS Wait Interval instruction (Table 6).
	OpWait
	// OpWaitReg is Wait with a register interval (the decoded form of
	// QNopReg; also directly usable).
	OpWaitReg
	// OpPulse is the QuMIS Pulse (QAddr, uOp) instruction (Table 6). The
	// micro-operation name is carried in UOp.
	OpPulse
	// OpMPG is the QuMIS measurement-pulse-generation instruction:
	// MPG QAddr, D with D the pulse duration in cycles (Table 6).
	OpMPG
	// OpMD is the QuMIS measurement-discrimination instruction:
	// MD QAddr, $rd (Table 6). The binary result lands in Rd.
	OpMD

	numOpcodes
)

var opNames = map[Opcode]string{
	OpNop: "nop", OpMov: "mov", OpMovReg: "movr", OpAdd: "add",
	OpAddi: "addi", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpLoad: "load", OpStore: "store", OpBeq: "beq", OpBne: "bne",
	OpBlt: "blt", OpJmp: "jmp", OpHalt: "halt",
	OpHostLoad: "hld", OpHostStore: "hst",
	OpApply: "Apply", OpApply2: "Apply2", OpMeasure: "Measure",
	OpQNopReg: "QNopReg", OpWait: "Wait", OpWaitReg: "WaitReg",
	OpPulse: "Pulse", OpMPG: "MPG", OpMD: "MD",
}

func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsQuantum reports whether the instruction is handled by the physical
// execution layer rather than the classical pipeline.
func (o Opcode) IsQuantum() bool {
	switch o {
	case OpApply, OpApply2, OpMeasure, OpQNopReg, OpWait, OpWaitReg, OpPulse, OpMPG, OpMD:
		return true
	}
	return false
}

// IsBranch reports whether the instruction may redirect control flow.
func (o Opcode) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpJmp:
		return true
	}
	return false
}

// Instruction is one decoded instruction. Unused fields are zero.
type Instruction struct {
	Op         Opcode
	Rd, Rs, Rt Reg
	Imm        int64     // immediate / branch target / duration
	QAddr      QubitMask // qubit address of quantum instructions
	UOp        string    // micro-operation or gate name
	Label      string    // unresolved branch target (assembly only)
}

// String renders the instruction in the paper's assembly syntax.
func (in Instruction) String() string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpMov:
		return fmt.Sprintf("mov %s, %d", in.Rd, in.Imm)
	case OpMovReg:
		return fmt.Sprintf("movr %s, %s", in.Rd, in.Rs)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
	case OpAddi:
		return fmt.Sprintf("addi %s, %s, %d", in.Rd, in.Rs, in.Imm)
	case OpLoad:
		return fmt.Sprintf("load %s, %s[%d]", in.Rd, in.Rs, in.Imm)
	case OpHostLoad:
		return fmt.Sprintf("hld %s, %d", in.Rd, in.Imm)
	case OpHostStore:
		return fmt.Sprintf("hst %s, %d", in.Rs, in.Imm)
	case OpStore:
		return fmt.Sprintf("store %s, %s[%d]", in.Rs, in.Rd, in.Imm)
	case OpBeq, OpBne, OpBlt:
		tgt := in.Label
		if tgt == "" {
			tgt = fmt.Sprintf("%d", in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rs, in.Rt, tgt)
	case OpJmp:
		tgt := in.Label
		if tgt == "" {
			tgt = fmt.Sprintf("%d", in.Imm)
		}
		return fmt.Sprintf("jmp %s", tgt)
	case OpApply:
		return fmt.Sprintf("Apply %s, q%d", in.UOp, firstQubit(in.QAddr))
	case OpApply2:
		qs := in.QAddr.Qubits()
		if len(qs) == 2 {
			// Imm names the first-listed operand (the control), so the
			// rendering preserves operand order instead of mask order.
			a, b := qs[0], qs[1]
			if int64(b) == in.Imm {
				a, b = b, a
			}
			return fmt.Sprintf("Apply2 %s, q%d, q%d", in.UOp, a, b)
		}
		return fmt.Sprintf("Apply2 %s, %s", in.UOp, in.QAddr)
	case OpMeasure:
		return fmt.Sprintf("Measure q%d, %s", firstQubit(in.QAddr), in.Rd)
	case OpQNopReg:
		return fmt.Sprintf("QNopReg %s", in.Rs)
	case OpWait:
		return fmt.Sprintf("Wait %d", in.Imm)
	case OpWaitReg:
		return fmt.Sprintf("WaitReg %s", in.Rs)
	case OpPulse:
		return fmt.Sprintf("Pulse %s, %s", in.QAddr, in.UOp)
	case OpMPG:
		return fmt.Sprintf("MPG %s, %d", in.QAddr, in.Imm)
	case OpMD:
		return fmt.Sprintf("MD %s, %s", in.QAddr, in.Rd)
	}
	return in.Op.String()
}

func firstQubit(m QubitMask) int {
	qs := m.Qubits()
	if len(qs) == 0 {
		return 0
	}
	return qs[0]
}

// Program is an instruction sequence with optional label metadata.
type Program struct {
	Instrs []Instruction
	// Labels maps label name → instruction index.
	Labels map[string]int
}

// Validate checks structural well-formedness: register indices in range,
// branch targets within the program, and quantum fields only on quantum
// opcodes.
func (p *Program) Validate() error {
	n := int64(len(p.Instrs))
	for i, in := range p.Instrs {
		if in.Op >= numOpcodes {
			return fmt.Errorf("isa: instr %d: invalid opcode %d", i, in.Op)
		}
		if !in.Rd.Valid() || !in.Rs.Valid() || !in.Rt.Valid() {
			return fmt.Errorf("isa: instr %d (%s): register out of range", i, in)
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm >= n {
				return fmt.Errorf("isa: instr %d (%s): branch target %d outside program [0,%d)", i, in, in.Imm, n)
			}
		}
		switch in.Op {
		case OpPulse, OpApply, OpApply2:
			if in.UOp == "" {
				return fmt.Errorf("isa: instr %d (%s): missing operation name", i, in)
			}
			if in.QAddr == 0 {
				return fmt.Errorf("isa: instr %d (%s): empty qubit address", i, in)
			}
		case OpMPG, OpMD, OpMeasure:
			if in.QAddr == 0 {
				return fmt.Errorf("isa: instr %d (%s): empty qubit address", i, in)
			}
		}
	}
	return nil
}

// LabelsSorted returns label names sorted by target index (for listings).
func (p *Program) LabelsSorted() []string {
	out := make([]string, 0, len(p.Labels))
	for l := range p.Labels {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return p.Labels[out[i]] < p.Labels[out[j]] })
	return out
}

// String renders the whole program with labels interleaved.
func (p *Program) String() string {
	byIndex := map[int][]string{}
	for l, i := range p.Labels {
		byIndex[i] = append(byIndex[i], l)
	}
	var b strings.Builder
	for i, in := range p.Instrs {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "    %s\n", in)
	}
	return b.String()
}
