// Package replay implements the shot-replay execution engine: the
// record/replay split that exploits the paper's own architectural divide
// between a deterministic classical microarchitecture and a stochastic
// quantum substrate.
//
// For feedback-free programs, every shot's trip through fetch/decode, the
// physical microcode unit, the QMB, and the timing-control queues is
// bit-identical; only the quantum substrate (PRNG-driven channel
// unwinding, projection, readout noise) differs. The engine therefore:
//
//   - Records: runs leading shots through the full pipeline, capturing the
//     timestamped quantum event schedule via core.Probe — idle-advance
//     channel applications, pulse rotations, two-qubit flux unitaries, and
//     measurement chains, in deterministic-domain order.
//   - Detects: conservatively decides whether the schedule is
//     shot-invariant. Two conditions must hold: (1) the execution
//     controller observed no classical consumption of a measurement
//     result or of cross-shot register/memory state
//     (exec.Controller.ReplayUnsafeReason), and (2) the schedules of two
//     consecutive steady-state shots are identical — which also catches
//     timing-induced variation such as SSB-phase drift when the shot
//     period is not a multiple of the modulation period.
//   - Replays: compiles the steady-state schedule once into specialized
//     closure-free steps bound to the concrete backend type (see
//     compile.go) — hoisted per-schedule channel pricing tables,
//     population carries threaded between steps and across shots, and
//     devirtualized executors — then drives the qphys.State backend
//     directly from the compiled form for all remaining shots: no
//     assembler, no pipeline, no timing queues. Every step applies
//     exactly the operation the full pipeline applies, in the same
//     order, with the same PRNG consumption (channel sampling →
//     projection → integration noise, in TD order), so measured results
//     and the state after every shot are bit-identical to full
//     simulation for every program. (The specialized kernels may flip
//     the sign of an exact zero, which no later operation can observe;
//     see qphys/compiled.go.)
//     The compiled form is memoized on the machine
//     (core.Machine.ReplayCache) and validated against each fresh
//     recording, so pooled machines compile each program once per
//     lifetime.
//   - Skips the lead on a machine that has already proven the program:
//     the queue-based timing makes the classical pipeline deterministic,
//     so from a reset point (core.Machine.TakeResetPoint) a safe program
//     always issues the same three lead schedules. Each memo entry also
//     keeps the cold-start shot 0, recorded at a reset point and stored
//     as its head before the suffix it shares with the steady schedule.
//     A lane whose machine is at its reset point and holds a cold shot it
//     proved itself replays shot 0 from it and shots 1–2 from the steady
//     schedule on the scalar executor — no pipeline, no recording — then
//     joins the replay loop at shot 3 as before. On such a hit the memo
//     decides correctness alone, with no fresh recording to validate it:
//     a hit is valid only at a reset point, between the memo's
//     invalidation points (UploadPulse, SetQubitParams and the µop
//     unit's definition generation), and mutating the machine's exported
//     components directly after construction is unsupported (see
//     core.Machine.ReplayCache). Runs of detectShots shots or fewer,
//     ModeOff and Cfg.TraceEvents (only the pipeline produces the
//     timeline) keep the pipeline lead. One entry is published per
//     lockstep group and stored on every lane whose own recordings
//     value-equal it, so entries are shared across machines and, being
//     immutable, across the goroutines that drive them.
//
// Feedback programs (e.g. examples/feedback, the corrected repetition
// code) are detected as unsafe and transparently fall back to full
// per-shot simulation; correctness never depends on the detection saying
// yes, only performance does.
//
// Invariants replayed shots do NOT maintain: controller registers and
// data memory (no classical execution happens), the digital output unit's
// gating log, the CTPG playback logs, the TraceEvents timeline and the
// instruction count. A lead
// replayed from the memo runs no instruction either, so after a run that
// replayed any shot, how much classical state the lead left depends on
// whether the machine was warm. Anything consuming those must run with
// ModeOff. Experiment results flow through the data collection
// unit and the per-shot measurement callback, which replay maintains
// exactly.
package replay

import (
	"context"
	"fmt"
	"slices"

	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

// Mode selects the engine behaviour.
type Mode string

const (
	// ModeAuto records leading shots, then replays the compiled schedule
	// when the program is detected replay-safe (the default; "" means
	// auto).
	ModeAuto Mode = "auto"
	// ModeOff runs every shot through the full pipeline — the reference
	// every other mode is bit-identical to.
	ModeOff Mode = "off"
	// ModeCompiled records leading shots and, when safe, compiles the
	// schedule once into specialized closure-free steps bound to the
	// concrete backend type (see compile.go), then replays the compiled
	// form. Bit-identical to ModeOff for every program.
	ModeCompiled Mode = "compiled"
	// ModeInterp is a deprecated alias of ModeCompiled: it runs compiled
	// replay. ParseMode accepts it and echoes it unchanged, so existing
	// requests and command lines keep working.
	ModeInterp Mode = "interp"
)

// ParseMode validates a mode string and resolves the default: the empty
// string selects ModeAuto. Callers that accept a mode from the outside
// (flags, config) should reject anything ParseMode rejects instead of
// silently defaulting.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "":
		return ModeAuto, nil
	case ModeAuto, ModeOff, ModeCompiled, ModeInterp:
		return Mode(s), nil
	}
	return "", fmt.Errorf("replay: unknown mode %q (want %q, %q, %q or %q)",
		s, ModeAuto, ModeCompiled, ModeInterp, ModeOff)
}

// maxCompiledPrograms bounds the per-machine memo of proven programs.
const maxCompiledPrograms = 256

// detectShots is the length of the lead shot window: shot 0 carries the
// cold-start transient (TD = 0, all qubits idle since construction, so
// its idle durations differ from every later shot); shots 1 and 2 are
// recorded and compared — two consecutive steady-state shots with
// identical schedules prove shot-invariance for all that follow. A cold
// machine runs the window through the full pipeline (recording shot 0
// too when at a reset point); a machine at its reset point that has
// already proven the program replays it from the memo instead. Runs of
// detectShots shots or fewer always take the pipeline.
const detectShots = 3

// ctxCheckShots is the bounded-staleness interval of the cancellation
// check inside the replayed shot loops: the context is consulted once
// every ctxCheckShots shots, so a cancellation or deadline preempts a
// sweep within that many shots (a compiled shot costs ~5.5 µs for the
// d=3 repcode and ~10.4 µs for RB m=128 in qumabench's traced runs on a
// 2-vCPU Xeon VM, so the bound is well under a millisecond) while the
// per-shot cost of the check amortizes to nothing. Full-pipeline shots
// are individually slow enough that their loops check every shot
// instead.
const ctxCheckShots = 32

// MD is one per-qubit measurement of a shot: the addressed qubit and the
// binary discrimination result the controller would see.
type MD struct {
	Qubit  int
	Result int
}

// Options configures one engine run.
type Options struct {
	// Shots is the number of times the program is executed (the averaging
	// count that used to live in the assembly Round_Loop).
	Shots int
	// Mode selects full simulation vs record/replay ("" = ModeAuto).
	Mode Mode
	// OnShot, when non-nil, is invoked after every shot with the shot's
	// measurement results in deterministic-domain order. The slice is
	// reused across shots; copy it to retain.
	OnShot func(shot int, md []MD)
	// BaseShot offsets the shot indices reported to OnShot and in
	// preemption/error messages: the global index of this run's first
	// shot when the caller splits one logical shot range across several
	// Runs on separate machines (the expt shot-sharding engine).
	// Execution is unaffected — lead/detection shots, replay-safety
	// detection, and the ctx-check cadence are all relative to this
	// run's own local shot range.
	BaseShot int
}

// Stats reports what the engine did.
type Stats struct {
	// Shots is the total number executed (full + replayed).
	Shots int
	// Replayed counts the shots after the lead window executed by
	// schedule replay (a lead replayed from the memo is not counted).
	Replayed int
	// Safe reports whether the program was detected replay-safe.
	Safe bool
	// Compiled reports whether replayed shots ran from the compiled
	// schedule (false: no replay at all).
	Compiled bool
	// Lead counts the lead window (detectShots shots) of a run in which
	// replay engaged, whether the window ran through the full pipeline
	// or was replayed from the memo by a warm machine — so Lead and
	// Replayed never depend on how warm the memo was. It is zero
	// whenever replay did not engage (ModeOff, unsafe programs, too few
	// shots): those runs execute every shot through the full pipeline
	// anyway, so their leading shots are ordinary work, not recording
	// overhead.
	Lead int
	// Overhead counts lead shots attributable to shot-sharding: merged
	// job stats (Merge, in shard order) count every shard's lead shots
	// beyond the first shard's as overhead, since an unsharded run of
	// the same job would pay the lead exactly once. Always zero on the
	// stats of a single engine run.
	Overhead int
	// Reason explains why replay was not used (empty when Safe).
	Reason string
}

// Merge folds the stats of the next shard of a shot-sharded run into s,
// in shard order: shot counts add, Safe/Compiled hold only if every
// shard held them (each shard detects independently; identical programs
// agree, so the AND is diagnostic, not lossy), and the first non-empty
// Reason is kept. Merging into a zero Stats adopts t wholesale.
func (s *Stats) Merge(t Stats) {
	if s.Shots == 0 {
		*s = t
		return
	}
	s.Shots += t.Shots
	s.Replayed += t.Replayed
	s.Lead += t.Lead
	// Every lead shot of a later shard is sharding overhead: the first
	// shard's recording would have covered the whole job unsharded.
	// (t.Lead already contains t.Overhead when t is itself a merged
	// aggregate, so this is not additive with t.Overhead.)
	s.Overhead += t.Lead
	s.Safe = s.Safe && t.Safe
	s.Compiled = s.Compiled && t.Compiled
	if s.Reason == "" {
		s.Reason = t.Reason
	}
}

// op kinds of a recorded schedule.
const (
	opIdle = iota
	opPulse
	opGate2
	opMeasure
)

// op is one recorded quantum operation. Matrices and Kraus slices alias
// the machine's rotation/decoherence cache entries, which are immutable
// for the duration of a run — the schedule stores no copies.
type op struct {
	kind  uint8
	q, qb int
	u     qphys.Matrix
	kraus []qphys.Matrix
}

// recorder implements core.Probe: it always collects per-shot measurement
// results (for OnShot delivery) and, when recording, appends the
// operation stream to the schedule.
type recorder struct {
	recording bool
	sched     []op
	md        []MD
	// ops counts the current shot's operations, recorded or not: the
	// previous shot's count sizes the next recording, so a schedule is
	// allocated once instead of regrown op by op.
	ops int
}

func (r *recorder) Idle(q int, rz qphys.Matrix, kraus []qphys.Matrix) {
	r.ops++
	if r.recording {
		r.sched = append(r.sched, op{kind: opIdle, q: q, u: rz, kraus: kraus})
	}
}

func (r *recorder) Pulse1(u qphys.Matrix, q int) {
	r.ops++
	if r.recording {
		r.sched = append(r.sched, op{kind: opPulse, q: q, u: u})
	}
}

func (r *recorder) Gate2(u qphys.Matrix, qa, qb int) {
	r.ops++
	if r.recording {
		r.sched = append(r.sched, op{kind: opGate2, q: qa, qb: qb, u: u})
	}
}

func (r *recorder) Measured(q, result int) {
	r.ops++
	if r.recording {
		r.sched = append(r.sched, op{kind: opMeasure, q: q})
	}
	r.md = append(r.md, MD{Qubit: q, Result: result})
}

// matrixEqual reports whether two matrices hold the same entries. A
// shared backing array — the same machine-cache entry, the common case
// within one machine — answers without reading the entries.
func matrixEqual(a, b qphys.Matrix) bool {
	if a.N != b.N || len(a.Data) != len(b.Data) {
		return false
	}
	return len(a.Data) == 0 || &a.Data[0] == &b.Data[0] || slices.Equal(a.Data, b.Data)
}

// krausEqual reports whether two Kraus sets hold the same operators.
func krausEqual(a, b []qphys.Matrix) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.EqualFunc(a, b, matrixEqual)
}

// schedulesEqual compares two recorded shot schedules operation by
// operation, matrices by value. Value equality is what every use needs:
// the compiled form derives from matrix values alone, and cached
// matrices are never mutated (a recalibration replaces the entry). So
// shot-invariance detection, the memo's staleness check and lockstep
// grouping across distinct machines — whose schedules alias separate
// caches — all accept exactly the schedules one compiled form replays
// bit-identically. Within one machine the pointer shortcuts make the
// comparison as cheap as identity.
func schedulesEqual(a, b []op) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		// One recording, e.g. the shared entry of two warm lanes.
		return true
	}
	for i := range a {
		if !opEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// opEqual compares two recorded operations, matrices by value.
func opEqual(x, y *op) bool {
	return x.kind == y.kind && x.q == y.q && x.qb == y.qb &&
		matrixEqual(x.u, y.u) && krausEqual(x.kraus, y.kraus)
}

// Run executes the program Shots times on the machine, per Options.Mode:
// RunBatch over a single lane. The machine should be freshly constructed
// or ResetState so the engine owns its full deterministic timeline (and
// so a machine that has proven the program can skip its pipeline lead).
// Results (data collection unit, OnShot measurement streams,
// PulsesPlayed/Measurements counters, and the quantum state after every
// shot) are bit-identical across modes for every program — replay only
// changes how fast they are produced.
//
// Cancellation: a done ctx preempts the run between full-pipeline shots
// and, inside replayed loops, within ctxCheckShots shots, returning the
// wrapped ctx.Err() (errors.Is-matchable against context.Canceled /
// context.DeadlineExceeded). A preempted run produces no usable result;
// a run that returns nil error is bit-identical to one executed with a
// context that was never canceled — cancellation can only abort a run,
// never perturb it. The machine is left mid-timeline; ResetState returns
// it to a sound pooled state (enforced by expt's cancellation tests).
func Run(ctx context.Context, m *core.Machine, p *isa.Program, opts Options) (Stats, error) {
	stats, err := RunBatch(ctx, p, []BatchLane{{M: m, BaseShot: opts.BaseShot, OnShot: opts.OnShot}}, opts.Shots, opts.Mode)
	return stats[0], err
}
