// Package microcode implements QuMA's physical microcode unit and its Q
// control store (paper Section 5.3): the stage that translates
// technology-independent QIS gate instructions (Apply, Apply2, Measure)
// into sequences of technology-dependent QuMIS microinstructions (Pulse,
// Wait, MPG, MD).
//
// Each QIS operation is backed by a microprogram — a template over the
// instruction's qubit operands — stored in the control store. Templates
// are horizontal: one Pulse step may address several qubits at once (the
// CZ step of the CNOT microprogram pulses both operands simultaneously).
// The worked example of the paper's Algorithm 2 is the CNOT microprogram:
//
//	Pulse {qt}, Ym90
//	Wait 4
//	Pulse {qt, qc}, CZ
//	Wait 8
//	Pulse {qt}, Y90
//	Wait 4
//
// Uploading different microprograms changes what an instruction means
// without touching the rest of the architecture — the paper's mechanism
// for absorbing rapid quantum-technology evolution.
package microcode

import (
	"fmt"
	"sort"

	"quma/internal/isa"
)

// Operand selectors for template steps: which of the QIS instruction's
// qubit operands a step addresses.
const (
	// Q0 selects the first operand qubit (the only one for Apply/Measure;
	// the first-listed one — e.g. the target of CNOT qt, qc — for Apply2).
	Q0 = 0
	// Q1 selects the second operand qubit of Apply2.
	Q1 = 1
)

// Step is one template step of a microprogram.
type Step struct {
	// Op is one of OpPulse, OpWait, OpMPG, OpMD.
	Op isa.Opcode
	// UOp names the micro-operation for Pulse steps.
	UOp string
	// Operands lists operand selectors (Q0/Q1) for Pulse/MPG/MD steps;
	// a horizontal step lists several.
	Operands []int
	// Imm is the Wait interval or MPG duration in cycles.
	Imm int64
}

// Microprogram is a named template stored in the Q control store.
type Microprogram struct {
	Name  string
	Arity int // number of qubit operands (1 or 2)
	Steps []Step
}

// Duration returns the total timeline the microprogram occupies, i.e. the
// sum of its Wait steps.
func (m Microprogram) Duration() int64 {
	var d int64
	for _, s := range m.Steps {
		if s.Op == isa.OpWait {
			d += s.Imm
		}
	}
	return d
}

// ControlStore is the Q control store: the uploadable mapping from QIS
// operation names to microprograms.
type ControlStore struct {
	programs map[string]Microprogram
	// MeasurePulseCycles is the MPG duration used when expanding Measure
	// (the paper's AllXY run uses 300 cycles = 1.5 µs).
	MeasurePulseCycles int64
}

// NewControlStore returns an empty control store with the paper's
// 300-cycle measurement pulse.
func NewControlStore() *ControlStore {
	return &ControlStore{programs: make(map[string]Microprogram), MeasurePulseCycles: 300}
}

// Upload stores (or replaces) a microprogram. Steps are validated: only
// QuMIS opcodes are allowed, and operand selectors must be within arity.
func (cs *ControlStore) Upload(m Microprogram) error {
	if m.Name == "" {
		return fmt.Errorf("microcode: empty microprogram name")
	}
	if m.Arity != 1 && m.Arity != 2 {
		return fmt.Errorf("microcode: %s: arity %d unsupported", m.Name, m.Arity)
	}
	for i, s := range m.Steps {
		switch s.Op {
		case isa.OpWait:
			if s.Imm <= 0 {
				return fmt.Errorf("microcode: %s step %d: Wait needs positive interval", m.Name, i)
			}
		case isa.OpPulse:
			if s.UOp == "" {
				return fmt.Errorf("microcode: %s step %d: Pulse needs a micro-operation name", m.Name, i)
			}
			fallthrough
		case isa.OpMPG, isa.OpMD:
			if len(s.Operands) == 0 {
				return fmt.Errorf("microcode: %s step %d: %s needs operands", m.Name, i, s.Op)
			}
			for _, o := range s.Operands {
				if o < 0 || o >= m.Arity {
					return fmt.Errorf("microcode: %s step %d: operand selector %d out of arity %d", m.Name, i, o, m.Arity)
				}
			}
		default:
			return fmt.Errorf("microcode: %s step %d: opcode %s not allowed in microprograms", m.Name, i, s.Op)
		}
	}
	steps := make([]Step, len(m.Steps))
	copy(steps, m.Steps)
	m.Steps = steps
	cs.programs[m.Name] = m
	return nil
}

// Lookup returns the microprogram for a QIS operation name.
func (cs *ControlStore) Lookup(name string) (Microprogram, bool) {
	m, ok := cs.programs[name]
	return m, ok
}

// Names returns the stored operation names, sorted.
func (cs *ControlStore) Names() []string {
	out := make([]string, 0, len(cs.programs))
	for n := range cs.programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Expand translates one QIS instruction into QuMIS microinstructions.
// QuMIS instructions pass through unchanged (the prototype in the paper
// accepts a mix of both), and classical instructions are rejected — they
// never reach the physical microcode unit. Expand returns a fresh slice;
// the execution controller's per-instruction path uses AppendExpand.
func (cs *ControlStore) Expand(in isa.Instruction) ([]isa.Instruction, error) {
	return cs.AppendExpand(nil, in)
}

// AppendExpand is Expand into a caller-owned buffer: it appends the
// expansion of in to dst and returns the extended slice, so a caller
// that reuses dst across instructions expands without allocating. On
// error dst is returned unchanged.
func (cs *ControlStore) AppendExpand(dst []isa.Instruction, in isa.Instruction) ([]isa.Instruction, error) {
	switch in.Op {
	case isa.OpWait, isa.OpWaitReg, isa.OpQNopReg, isa.OpPulse, isa.OpMPG, isa.OpMD:
		return append(dst, in), nil
	case isa.OpMeasure:
		q := in.QAddr
		return append(dst,
			isa.Instruction{Op: isa.OpMPG, QAddr: q, Imm: cs.MeasurePulseCycles},
			isa.Instruction{Op: isa.OpMD, QAddr: q, Rd: in.Rd},
		), nil
	case isa.OpApply, isa.OpApply2:
		operands, n, err := operandQubits(in)
		if err != nil {
			return dst, err
		}
		mp, ok := cs.programs[in.UOp]
		if !ok {
			return dst, fmt.Errorf("microcode: no microprogram for operation %q", in.UOp)
		}
		if mp.Arity != n {
			return dst, fmt.Errorf("microcode: %s has arity %d, instruction %q supplies %d operands",
				in.UOp, mp.Arity, in, n)
		}
		for _, s := range mp.Steps {
			mi := isa.Instruction{Op: s.Op, UOp: s.UOp, Imm: s.Imm}
			if s.Op != isa.OpWait {
				var mask isa.QubitMask
				for _, o := range s.Operands {
					mask |= isa.MaskQ(operands[o])
				}
				mi.QAddr = mask
			}
			if s.Op == isa.OpMD {
				mi.Rd = in.Rd
			}
			dst = append(dst, mi)
		}
		return dst, nil
	}
	return dst, fmt.Errorf("microcode: classical instruction %q reached the physical microcode unit", in)
}

// operandQubits recovers the ordered operand list from a QIS instruction
// as (operands, count): Apply has one qubit; Apply2 stores the
// first-listed operand index in Imm (see the assembler) and the pair in
// QAddr.
func operandQubits(in isa.Instruction) ([2]int, int, error) {
	var qs [2]int
	n := 0
	for q := range in.QAddr.All() {
		if n < len(qs) {
			qs[n] = q
		}
		n++
	}
	switch in.Op {
	case isa.OpApply:
		if n != 1 {
			return qs, 0, fmt.Errorf("microcode: Apply needs exactly one qubit, got %s", in.QAddr)
		}
		return qs, 1, nil
	case isa.OpApply2:
		if n != 2 {
			return qs, 0, fmt.Errorf("microcode: Apply2 needs exactly two qubits, got %s", in.QAddr)
		}
		first := int(in.Imm)
		if first != qs[0] && first != qs[1] {
			return qs, 0, fmt.Errorf("microcode: Apply2 first-operand %d not in %s", first, in.QAddr)
		}
		second := qs[0]
		if second == first {
			second = qs[1]
		}
		return [2]int{first, second}, 2, nil
	}
	return qs, 0, fmt.Errorf("microcode: %s has no qubit operands", in.Op)
}

// StandardControlStore returns a control store loaded with the default
// microprogram library:
//
//   - every Table 1 primitive as a single Pulse + 4-cycle Wait;
//   - Z and H emulated from primitives (Z = X·Y as in the paper's SeqZ
//     discussion, lifted to the microcode level; H = Ry(π/2)·X·Y);
//   - CZ as a horizontal two-qubit pulse (8 cycles = 40 ns);
//   - CNOT as the paper's Algorithm 2.
func StandardControlStore() *ControlStore {
	cs := NewControlStore()
	for _, prim := range []string{"I", "X180", "X90", "Xm90", "Y180", "Y90", "Ym90"} {
		mustUpload(cs, Microprogram{
			Name:  prim,
			Arity: 1,
			Steps: []Step{
				{Op: isa.OpPulse, UOp: prim, Operands: []int{Q0}},
				{Op: isa.OpWait, Imm: 4},
			},
		})
	}
	mustUpload(cs, Microprogram{
		Name:  "Z",
		Arity: 1,
		Steps: []Step{
			{Op: isa.OpPulse, UOp: "Y180", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
			{Op: isa.OpPulse, UOp: "X180", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
		},
	})
	mustUpload(cs, Microprogram{
		Name:  "H",
		Arity: 1,
		Steps: []Step{
			{Op: isa.OpPulse, UOp: "Y180", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
			{Op: isa.OpPulse, UOp: "X180", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
			{Op: isa.OpPulse, UOp: "Y90", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
		},
	})
	mustUpload(cs, Microprogram{
		Name:  "CZ",
		Arity: 2,
		Steps: []Step{
			{Op: isa.OpPulse, UOp: "CZ", Operands: []int{Q0, Q1}},
			{Op: isa.OpWait, Imm: 8},
		},
	})
	// Algorithm 2: CNOT qt, qc — Q0 is the target (first listed), Q1 the
	// control.
	mustUpload(cs, Microprogram{
		Name:  "CNOT",
		Arity: 2,
		Steps: []Step{
			{Op: isa.OpPulse, UOp: "Ym90", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
			{Op: isa.OpPulse, UOp: "CZ", Operands: []int{Q0, Q1}},
			{Op: isa.OpWait, Imm: 8},
			{Op: isa.OpPulse, UOp: "Y90", Operands: []int{Q0}},
			{Op: isa.OpWait, Imm: 4},
		},
	})
	return cs
}

func mustUpload(cs *ControlStore, m Microprogram) {
	if err := cs.Upload(m); err != nil {
		panic(err)
	}
}
