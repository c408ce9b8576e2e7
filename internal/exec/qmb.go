// Package exec implements QuMA's execution controller — the classical
// pipeline that executes auxiliary instructions and streams quantum
// instructions toward the physical execution layer — together with the
// quantum microinstruction buffer (QMB) that decomposes QuMIS
// microinstructions into labelled micro-operations and fills the timing
// control unit's queues (paper Sections 5.2 and 5.3).
package exec

import (
	"fmt"

	"quma/internal/clock"
	"quma/internal/isa"
	"quma/internal/timing"
)

// PulseEvent is a micro-operation scheduled in the pulse queue: a named
// micro-operation addressed to one qubit (single-qubit decomposition of a
// horizontal Pulse) or to a qubit pair (two-qubit operations such as CZ,
// which are physically one flux pulse).
type PulseEvent struct {
	Qubits isa.QubitMask
	UOp    string
}

func (e PulseEvent) String() string { return fmt.Sprintf("(%s, %s)", e.UOp, e.Qubits) }

// MPGEvent triggers measurement-pulse generation on the addressed qubits
// for Duration cycles.
type MPGEvent struct {
	Qubits   isa.QubitMask
	Duration clock.Cycle
}

func (e MPGEvent) String() string { return fmt.Sprintf("(MPG %s, %d)", e.Qubits, e.Duration) }

// MDEvent triggers measurement discrimination on the addressed qubits,
// with the binary result written back to register Rd.
type MDEvent struct {
	Qubits isa.QubitMask
	Rd     isa.Reg
}

func (e MDEvent) String() string { return fmt.Sprintf("(%s, %s)", e.Rd, e.Qubits) }

// QMB is the quantum microinstruction buffer. It accepts QuMIS
// microinstructions in program order, assigns each event a time point on
// the deterministic timeline (a timing label plus an interval from the
// previous time point), and pushes the resulting micro-operations into
// the event queues of the timing control unit.
//
// Timing rule (derived from the paper's Tables 2–4): Wait accumulates
// interval; the first event instruction after accumulated interval opens
// a new time point; event instructions with no intervening Wait share the
// current time point (as the MPG/MD pair of a measurement does).
type QMB struct {
	// TC is the timing controller whose queues this QMB fills.
	TC *timing.Controller
	// PulseQ, MPGQ, MDQ are the three event queues of the AllXY
	// configuration (and of the implemented prototype).
	PulseQ *timing.EventQueue[PulseEvent]
	MPGQ   *timing.EventQueue[MPGEvent]
	MDQ    *timing.EventQueue[MDEvent]
	// TwoQubitOps names micro-operations that address a qubit *pair* with
	// a single physical pulse; horizontal Pulse instructions naming them
	// are not decomposed per qubit.
	TwoQubitOps map[string]bool

	nextLabel timing.Label
	acc       clock.Cycle
	haveLabel bool
	curLabel  timing.Label
}

// NewQMB builds a QMB wired to a fresh timing controller. Fire handlers
// for the three queues are supplied by the machine integration (package
// core); nil handlers discard events.
func NewQMB(
	onPulse func(PulseEvent, clock.Cycle),
	onMPG func(MPGEvent, clock.Cycle),
	onMD func(MDEvent, clock.Cycle),
) *QMB {
	q := &QMB{
		TC:          timing.NewController(),
		TwoQubitOps: map[string]bool{"CZ": true},
	}
	q.PulseQ = timing.NewEventQueue("Pulse", onPulse)
	q.MPGQ = timing.NewEventQueue("MPG", onMPG)
	q.MDQ = timing.NewEventQueue("MD", onMD)
	q.TC.Register(q.PulseQ)
	q.TC.Register(q.MPGQ)
	q.TC.Register(q.MDQ)
	return q
}

// Reset returns the QMB to its just-constructed state in place: empty
// queues, a stopped timeline, no open time point, label numbering from
// the start, and only CZ as a two-qubit operation. The queue buffers,
// the timing controller's registrations and the fire handlers are kept.
func (q *QMB) Reset() {
	q.TC.Reset()
	clear(q.TwoQubitOps)
	q.TwoQubitOps["CZ"] = true
	q.nextLabel, q.acc, q.haveLabel, q.curLabel = 0, 0, false, 0
}

// Wait accumulates interval before the next time point.
func (q *QMB) Wait(cycles clock.Cycle) { q.acc += cycles }

// label returns the label for the next event, opening a new time point if
// interval has accumulated (or none exists yet).
func (q *QMB) label() timing.Label {
	if !q.haveLabel || q.acc > 0 {
		q.nextLabel++
		q.curLabel = q.nextLabel
		q.TC.TQ.Push(timing.TimePoint{Interval: q.acc, Label: q.curLabel})
		q.acc = 0
		q.haveLabel = true
	}
	return q.curLabel
}

// Submit decomposes one QuMIS microinstruction into micro-operations and
// pushes them into the queues. Register-timed waits must be resolved by
// the caller (the execution controller) before submission.
func (q *QMB) Submit(in isa.Instruction) error {
	switch in.Op {
	case isa.OpWait:
		if in.Imm < 0 {
			return fmt.Errorf("exec: negative Wait %d", in.Imm)
		}
		q.Wait(clock.Cycle(in.Imm))
		return nil
	case isa.OpPulse:
		l := q.label()
		if q.TwoQubitOps[in.UOp] {
			q.PulseQ.Push(PulseEvent{Qubits: in.QAddr, UOp: in.UOp}, l)
			return nil
		}
		for qb := range in.QAddr.All() {
			q.PulseQ.Push(PulseEvent{Qubits: isa.MaskQ(qb), UOp: in.UOp}, l)
		}
		return nil
	case isa.OpMPG:
		if in.Imm <= 0 {
			return fmt.Errorf("exec: MPG needs positive duration, got %d", in.Imm)
		}
		q.MPGQ.Push(MPGEvent{Qubits: in.QAddr, Duration: clock.Cycle(in.Imm)}, q.label())
		return nil
	case isa.OpMD:
		q.MDQ.Push(MDEvent{Qubits: in.QAddr, Rd: in.Rd}, q.label())
		return nil
	}
	return fmt.Errorf("exec: %s is not a queue-fillable microinstruction", in.Op)
}

// PendingInterval returns the interval accumulated since the last time
// point (test/inspection hook).
func (q *QMB) PendingInterval() clock.Cycle { return q.acc }

// LabelsIssued returns how many time points have been opened.
func (q *QMB) LabelsIssued() uint64 { return uint64(q.nextLabel) }
