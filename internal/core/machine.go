// Package core assembles the complete QuMA machine: the quantum control
// box of the paper's Section 7 (execution controller, physical microcode
// unit, quantum microinstruction buffer, timing control unit,
// micro-operation units, codeword-triggered pulse generation units,
// measurement discrimination unit, data collection unit) wired to a
// simulated transmon chip in place of the dilution refrigerator.
//
// The machine runs programs written in the combined auxiliary-classical +
// QuMIS instruction set (optionally containing QIS gate instructions,
// which the microcode unit expands), and exposes the observables an
// experimentalist gets from the real box: per-index averaged integration
// results, measurement registers, pulse playback logs, and an event
// timeline.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/clock"
	"quma/internal/exec"
	"quma/internal/isa"
	"quma/internal/microcode"
	"quma/internal/prng"
	"quma/internal/pulse"
	"quma/internal/qphys"
	"quma/internal/readout"
	"quma/internal/uop"
)

// Backend selects the quantum-state substrate the machine evolves. The
// instruction pipeline is substrate-agnostic: it only touches the state
// through the qphys.State interface.
type Backend string

const (
	// BackendDensity is the exact density-matrix backend: O(4^n) memory,
	// every channel applied as a full Kraus sum, register size 1–8.
	// It is the default (an empty Backend value selects it).
	BackendDensity Backend = "density"
	// BackendTrajectory is the pure-state Monte-Carlo backend: O(2^n)
	// memory, one Kraus operator sampled per channel application from the
	// machine's deterministic PRNG, register size 1–16. Exact in
	// expectation over shots; use it for multi-shot experiments that need
	// more qubits or more speed than the density backend affords.
	BackendTrajectory Backend = "trajectory"
)

// maxQubits returns the backend's register-size ceiling.
func (b Backend) maxQubits() (int, error) {
	switch b {
	case "", BackendDensity:
		return 8, nil
	case BackendTrajectory:
		return isa.MaxQubits, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want %q or %q)", b, BackendDensity, BackendTrajectory)
}

// Config describes a QuMA machine instance.
type Config struct {
	// NumQubits is the simulated register size. The density backend
	// allows 1–8 (the control box has 8 digital outputs and three AWG
	// boards in the paper); the trajectory backend extends the simulated
	// chip to 1–16.
	NumQubits int
	// Backend selects the quantum-state substrate (empty = density).
	Backend Backend
	// Qubit holds per-qubit coherence/control parameters; missing entries
	// default to qphys.DefaultQubitParams. New copies the slice, so
	// machines built from one Config never share it. After New the values
	// are captured by the machine's decoherence-channel cache — change
	// them via Machine.SetQubitParams, not by writing Cfg.Qubit directly.
	Qubit []qphys.QubitParams
	// Readout configures the measurement chain (shared calibration).
	Readout readout.Params
	// AmplitudeError is the fractional pulse-amplitude miscalibration ε
	// applied when uploading the standard library (AllXY error-signature
	// knob).
	AmplitudeError float64
	// SSBHz is the single-sideband modulation frequency.
	SSBHz float64
	// Seed seeds the machine's deterministic PRNG.
	Seed int64
	// CollectK enables the data collection unit with K results per round
	// when positive.
	CollectK int
	// TraceEvents enables the event timeline log (Fig. 3 / Fig. 5
	// reproduction); experiments with millions of shots leave it off.
	TraceEvents bool
}

// DefaultConfig returns a single-qubit machine with the paper's
// parameters.
func DefaultConfig() Config {
	return Config{
		NumQubits: 1,
		Readout:   readout.DefaultParams(),
		SSBHz:     pulse.DefaultSSBHz,
		Seed:      1,
	}
}

// Probe observes the machine's quantum-operation stream in
// deterministic-domain (TD) order: exactly the operations applied to the
// State backend, in the order they consume the machine PRNG. The replay
// engine (internal/replay) installs one to record per-shot schedules. A
// nil probe costs one predictable branch per operation.
type Probe interface {
	// Idle reports an idle-advance channel application on qubit q: rz is
	// the detuning rotation (N == 0 when absent) and kraus the decoherence
	// Kraus set (nil when the channel is exactly the identity). Pure
	// no-op advances are not reported.
	Idle(q int, rz qphys.Matrix, kraus []qphys.Matrix)
	// Pulse1 reports a played drive pulse on qubit q. u.N == 0 means the
	// pulse was timing-only (zero rotation angle): no unitary was applied
	// but the playback still counted toward PulsesPlayed.
	Pulse1(u qphys.Matrix, q int)
	// Gate2 reports a two-qubit flux-pulse unitary applied to (qa, qb).
	Gate2(u qphys.Matrix, qa, qb int)
	// Measured reports one completed per-qubit measurement chain and its
	// binary discrimination result.
	Measured(q, result int)
}

// TraceEntry is one event of the deterministic-domain timeline.
type TraceEntry struct {
	TD   clock.Cycle
	Kind string // "pulse", "mpg", "md"
	Desc string
}

func (e TraceEntry) String() string {
	return fmt.Sprintf("TD=%-8d (%6.2fµs)  %-5s %s", e.TD, float64(e.TD.Nanos())/1e3, e.Kind, e.Desc)
}

// Machine is a fully wired QuMA control box plus simulated chip.
type Machine struct {
	Cfg        Config
	Controller *exec.Controller
	QMB        *exec.QMB
	UOp        *uop.Unit
	CTPG       []*awg.CTPG // one drive channel per qubit
	Digital    *awg.DigitalOutputUnit
	MDU        *readout.MDU
	Collector  *readout.DataCollector
	// State is the quantum register, behind the pluggable backend
	// interface — the concrete type is chosen by Cfg.Backend.
	State qphys.State

	rng      *rand.Rand
	lastTime []clock.Sample // per-qubit time up to which physics advanced
	trace    []TraceEntry
	// ssbPeriod is the single-sideband period in samples when it is an
	// integer number of samples (the cacheable case), else 0. Computed
	// once in New; rotationOf reads it on every pulse.
	ssbPeriod clock.Sample
	rotCache  map[rotKey]rotVal
	// decoCache memoizes the decoherence Kraus set (and detuning rotation)
	// per (qubit, idle duration): advance recomputes identical channels
	// millions of times per experiment, and building one allocates ~10
	// small matrices.
	decoCache map[decoKey]decoVal
	cz        qphys.Matrix // cached CZ unitary for the flux-pulse path
	// triggers is the reused buffer the micro-operation unit expands each
	// fired pulse into.
	triggers []uop.Trigger
	// probe, when non-nil, observes the quantum-operation stream.
	probe Probe
	// ReplayCache is an opaque slot for the shot-replay engine to memoize
	// proven programs across runs on this machine, keyed by program
	// identity: the steady-state schedule, its compiled form and the
	// cold-start shot recorded at a reset point. It survives ResetState
	// on purpose — cached entries alias rotation/decoherence cache
	// entries, which also survive. It is cleared wholesale by UploadPulse
	// and SetQubitParams: those invalidate the aliased cache entries,
	// leaving every memoized schedule permanently stale — dropping them
	// also bounds the memo to live programs over a machine pooled for a
	// service lifetime.
	//
	// On a machine that runs the full pipeline the engine validates an
	// entry against the freshly recorded schedule before reuse, so a
	// stale entry can only miss. At a reset point (TakeResetPoint) the
	// memo decides correctness alone: the engine replays the lead shots
	// of a program this machine has already proven, or that a
	// LeadEquivalent machine proved in the same engine call, without
	// recording anything. Such a hit is valid only between the
	// invalidation points — UploadPulse, SetQubitParams, and the µop
	// unit's definition generation (uop.Unit.Generation), which the
	// engine checks — so
	// mutating the exported components directly after construction
	// (m.UOp.Delay, m.CTPG[q].Upload, m.Controller.CS, m.MDU fields,
	// m.Cfg) is unsupported, as it already is for the rotation and
	// decoherence caches.
	ReplayCache any
	// resetPoint reports that no program has run since New or
	// ResetState (see TakeResetPoint).
	resetPoint bool
	// customized records an UploadPulse or SetQubitParams call since
	// New, and newGen is the µop unit's definition generation when New
	// returned; ResetState clears neither (see LeadEquivalent).
	customized bool
	newGen     uint64
	// PulsesPlayed counts codeword-triggered playbacks.
	PulsesPlayed uint64
	// Measurements counts MD events executed.
	Measurements uint64
	runErr       error
}

type rotKey struct {
	q     int
	cw    awg.Codeword
	phase clock.Sample // playback start modulo the SSB period
}

type rotVal struct {
	phi, theta float64
	mat        qphys.Matrix // REquator(phi, theta), built once per entry
}

type decoKey struct {
	q     int
	delta clock.Sample // idle duration in samples
}

type decoVal struct {
	rz    qphys.Matrix   // detuning rotation; N == 0 when no detuning
	ops   []qphys.Matrix // decoherence Kraus operators
	ident bool           // channel is exactly the identity: skip it
}

// New builds and calibrates a machine: uploads the Table 1 pulse library
// to every CTPG, fills the micro-operation units with pass-through
// entries, calibrates the MDU, and loads the standard Q control store.
func New(cfg Config) (*Machine, error) {
	maxQ, err := cfg.Backend.maxQubits()
	if err != nil {
		return nil, err
	}
	if cfg.NumQubits < 1 || cfg.NumQubits > maxQ {
		return nil, fmt.Errorf("core: NumQubits %d out of range 1..%d for backend %q", cfg.NumQubits, maxQ, cfg.Backend)
	}
	if cfg.SSBHz == 0 {
		cfg.SSBHz = pulse.DefaultSSBHz
	}
	if cfg.Readout.IntegrationSamples == 0 {
		cfg.Readout = readout.DefaultParams()
	}
	// The machine owns its parameters: SetQubitParams writes Cfg.Qubit,
	// which must not reach the caller's Config or another machine.
	cfg.Qubit = slices.Clone(cfg.Qubit)
	for len(cfg.Qubit) < cfg.NumQubits {
		cfg.Qubit = append(cfg.Qubit, qphys.DefaultQubitParams())
	}

	src := prng.New(cfg.Seed)
	m := &Machine{
		Cfg:       cfg,
		rng:       rand.New(src),
		lastTime:  make([]clock.Sample, cfg.NumQubits),
		rotCache:  make(map[rotKey]rotVal),
		decoCache: make(map[decoKey]decoVal),
		cz:        qphys.CZ(),
		// A fresh machine is at its reset point.
		resetPoint: true,
	}
	// The trajectory backend samples Kraus operators from the machine's
	// own generator — the stream m.rng draws measurements and readout
	// noise from — so a fixed Config.Seed fixes the whole trajectory. It
	// holds the concrete source, so replayed draws skip rand.Rand.
	if cfg.Backend == BackendTrajectory {
		m.State = qphys.NewTrajectorySource(cfg.NumQubits, src)
	} else {
		m.State = qphys.NewDensity(cfg.NumQubits)
	}
	// cfg.SSBHz was defaulted above, so only a non-integral period (in
	// samples) leaves ssbPeriod at 0 — the uncacheable demodulation case.
	if p := math.Abs(1e9 / cfg.SSBHz); p == math.Trunc(p) {
		m.ssbPeriod = clock.Sample(p)
	}
	for q := 0; q < cfg.NumQubits; q++ {
		c := awg.NewCTPG()
		c.SSBHz = cfg.SSBHz
		if err := c.UploadStandardLibrary(cfg.AmplitudeError); err != nil {
			return nil, fmt.Errorf("core: calibrating qubit %d: %w", q, err)
		}
		m.CTPG = append(m.CTPG, c)
	}
	m.UOp = uop.NewUnit()
	m.UOp.DefineStandardLibrary()
	m.Digital = awg.NewDigitalOutputUnit()
	m.MDU = readout.Calibrate(cfg.Readout)
	if cfg.CollectK > 0 {
		m.Collector = readout.NewDataCollector(cfg.CollectK)
	}

	m.QMB = exec.NewQMB(m.onPulse, m.onMPG, nil)
	m.Controller = exec.NewController(microcode.StandardControlStore(), m.QMB)
	// MD needs the controller for write-back, so it is wired afterwards.
	m.QMB.MDQ.OnFire = m.onMD
	m.newGen = m.UOp.Generation()
	return m, nil
}

// ResetState returns the machine to its just-constructed condition under a
// new PRNG seed, without reconstructing what construction paid for:
// calibrated CTPG lookup tables, micro-operation definitions, the MDU
// calibration, and the rotation/decoherence caches all survive. The
// quantum register, per-qubit clocks, deterministic-domain queues,
// controller registers/memory (and any installed instruction cache),
// collector, digital-output and playback logs, trace, and event counters
// are cleared in place, keeping their buffers, so a reset allocates
// nothing. A reset machine behaves bit-identically to a fresh core.New
// with the same Config and seed, which is what lets the sweep engine
// pool machines across points.
//
// Surviving LUT/µop state cuts both ways: custom UploadPulse /
// DefinePrimitive calls made after construction also survive, so a
// caller reusing a machine across sweep points must re-apply its
// per-point customization unconditionally on every point (as RunRabi
// does) — a conditional upload would leave a pooled machine playing the
// previous point's waveform where a fresh machine would play the
// library's.
func (m *Machine) ResetState(seed int64) {
	m.Cfg.Seed = seed
	m.rng.Seed(seed)
	// The State keeps its backend binding: rand.Rand.Seed reseeds the
	// one prng.Source that m.rng wraps and the trajectory backend samples
	// from.
	m.State.Reset()
	for i := range m.lastTime {
		m.lastTime[i] = 0
	}
	m.trace = nil
	m.PulsesPlayed = 0
	m.Measurements = 0
	m.runErr = nil
	m.probe = nil
	for _, c := range m.CTPG {
		c.ResetPlaybacks()
	}
	m.Digital.Reset()
	if m.Collector != nil {
		m.Collector.Reset()
	}
	m.QMB.Reset()
	m.Controller.Reset()
	m.resetPoint = true
}

// TakeResetPoint reports whether the machine is still at its New or
// ResetState point — no program has run since, no register was preset
// and no instruction cache installed — and clears the mark, so it
// answers true at most once per reset. At a reset point every program
// starts from one classical state (time zero, all qubits idle since
// construction, zeroed registers and memory), which is what lets the
// replay engine reuse a cold-start shot it recorded at an earlier reset
// point. RunProgram clears the mark as well.
func (m *Machine) TakeResetPoint() bool {
	at := m.resetPoint && m.Controller.Regs == [isa.NumRegs]int64{} && m.Controller.ICache == nil
	m.resetPoint = false
	return at
}

// LeadEquivalent reports whether m and o are interchangeable at a reset
// point: their configs are equal up to Seed, and neither has been
// customized since core.New returned — no UploadPulse, SetQubitParams,
// or µop Define/DefinePrimitive. Such machines hold the same LUTs, µop
// definitions, control store and calibration, and the queue-based
// timing makes their classical pipelines deterministic, so from a reset
// point a program issues the same quantum operations on both, up to
// what the PRNG draws. A customization marks a machine for its whole
// life, pooled resets included, because ResetState keeps it. The replay
// engine lets a machine replay its lead shots from an entry an
// equivalent machine proved (internal/replay).
func (m *Machine) LeadEquivalent(o *Machine) bool {
	return m.pristine() && o.pristine() && configEqualUpToSeed(&m.Cfg, &o.Cfg)
}

// pristine reports that no customization was made since New.
func (m *Machine) pristine() bool {
	return !m.customized && m.UOp.Generation() == m.newGen
}

// configEqualUpToSeed compares every Config field except Seed.
func configEqualUpToSeed(a, b *Config) bool {
	return a.NumQubits == b.NumQubits && a.Backend == b.Backend &&
		slices.Equal(a.Qubit, b.Qubit) && a.Readout == b.Readout &&
		a.AmplitudeError == b.AmplitudeError && a.SSBHz == b.SSBHz &&
		a.CollectK == b.CollectK && a.TraceEvents == b.TraceEvents
}

// SetProbe installs (or removes, with nil) the quantum-operation stream
// observer.
func (m *Machine) SetProbe(p Probe) { m.probe = p }

// RunAssembly assembles and runs a program, returning the first error
// from either domain.
func (m *Machine) RunAssembly(src string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	return m.RunProgram(p)
}

// RunProgram executes a program to completion (halt) with the default
// step bound.
func (m *Machine) RunProgram(p *isa.Program) error {
	m.resetPoint = false
	if err := m.Controller.Load(p); err != nil {
		return err
	}
	m.runErr = nil
	if err := m.Controller.Run(0); err != nil {
		return err
	}
	return m.runErr
}

// Trace returns the deterministic-domain event timeline (empty unless
// Config.TraceEvents).
func (m *Machine) Trace() []TraceEntry { return m.trace }

// ResetTrace clears the timeline.
func (m *Machine) ResetTrace() { m.trace = nil }

// UploadPulse replaces (or adds) a calibrated waveform in qubit q's CTPG
// lookup table and invalidates the machine's cached rotations for that
// codeword. This is the recalibration path: LUT content is configuration
// state, changed without touching programs. Use this instead of writing
// to the CTPG directly, or stale rotations may be applied.
func (m *Machine) UploadPulse(q int, cw awg.Codeword, name string, w pulse.Waveform) error {
	if q < 0 || q >= len(m.CTPG) {
		return fmt.Errorf("core: no drive channel for qubit %d", q)
	}
	if err := m.CTPG[q].Upload(cw, name, w); err != nil {
		return err
	}
	for k := range m.rotCache {
		if k.q == q && k.cw == cw {
			delete(m.rotCache, k)
		}
	}
	// Compiled replay schedules alias the invalidated rotation entries;
	// they would fail validation forever, so drop them now.
	m.ReplayCache = nil
	m.customized = true
	return nil
}

// SetQubitParams replaces qubit q's coherence/control parameters and
// invalidates the cached decoherence channels built from the old values.
// Mutating Cfg.Qubit directly is not supported: advance() memoizes the
// Kraus sets per (qubit, duration), so direct writes after New would be
// silently ignored for already-seen idle durations.
func (m *Machine) SetQubitParams(q int, p qphys.QubitParams) error {
	if q < 0 || q >= m.Cfg.NumQubits {
		return fmt.Errorf("core: no qubit %d", q)
	}
	m.Cfg.Qubit[q] = p
	for k := range m.decoCache {
		if k.q == q {
			delete(m.decoCache, k)
		}
	}
	// Compiled replay schedules alias the invalidated Kraus sets; drop
	// them (see UploadPulse).
	m.ReplayCache = nil
	m.customized = true
	return nil
}

// MemoryFootprintBytes returns the total CTPG lookup-table memory at the
// paper's 12-bit accounting.
func (m *Machine) MemoryFootprintBytes() int {
	total := 0
	for _, c := range m.CTPG {
		total += c.MemoryBytes(12)
	}
	return total
}

// fail records the first deterministic-domain error; the paper's hardware
// would raise it as a fault flag.
func (m *Machine) fail(err error) {
	if m.runErr == nil && err != nil {
		m.runErr = err
	}
}

// advance applies decoherence to qubit q from its last-advanced time to
// the target sample time. The (detuning rotation, Kraus set) pair for a
// given idle duration is cached on the machine: experiment programs idle
// each qubit by a handful of distinct durations, millions of times.
func (m *Machine) advance(q int, to clock.Sample) {
	if to <= m.lastTime[q] {
		return
	}
	delta := to - m.lastTime[q]
	m.lastTime[q] = to
	key := decoKey{q: q, delta: delta}
	v, ok := m.decoCache[key]
	if !ok {
		dt := float64(delta) * 1e-9
		p := m.Cfg.Qubit[q]
		if p.FreqDetuningHz != 0 {
			v.rz = qphys.RZ(2 * math.Pi * p.FreqDetuningHz * dt)
		}
		v.ops = qphys.DecoherenceChannel(dt, p)
		// DecoherenceChannel returns {I} exactly when both coherence
		// times are disabled; applying it would be an exact no-op.
		v.ident = p.T1 <= 0 && p.T2 <= 0
		m.decoCache[key] = v
	}
	if v.rz.N != 0 {
		m.State.Apply1(v.rz, q)
	}
	if !v.ident {
		m.State.ApplyKraus1(v.ops, q)
	}
	if m.probe != nil && (v.rz.N != 0 || !v.ident) {
		ops := v.ops
		if v.ident {
			ops = nil
		}
		m.probe.Idle(q, v.rz, ops)
	}
}

// onPulse handles a fired pulse micro-operation: expand through the
// micro-operation unit, trigger the CTPG(s), and apply the resulting
// physics to the chip.
func (m *Machine) onPulse(e exec.PulseEvent, td clock.Cycle) {
	if e.UOp == "CZ" {
		if e.Qubits.Count() != 2 {
			m.fail(fmt.Errorf("core: CZ requires exactly 2 qubits, got %s", e.Qubits))
			return
		}
		// The two set bits, in ascending order.
		qa := bits.TrailingZeros16(uint16(e.Qubits))
		qb := bits.Len16(uint16(e.Qubits)) - 1
		// The CZ flux pulse goes out on a dedicated flux line with the
		// same fixed latency as drive pulses.
		at := (td + awg.FixedDelayCycles).Samples()
		m.advance(qa, at)
		m.advance(qb, at)
		m.State.Apply2(m.cz, qa, qb)
		if m.probe != nil {
			m.probe.Gate2(m.cz, qa, qb)
		}
		if m.Cfg.TraceEvents {
			m.tracef(td, "pulse", "CZ %s", e.Qubits)
		}
		m.PulsesPlayed++
		return
	}
	for q := range e.Qubits.All() {
		if q >= len(m.CTPG) {
			m.fail(fmt.Errorf("core: qubit %d has no drive channel", q))
			return
		}
		var err error
		m.triggers, err = m.UOp.Expand(m.triggers[:0], e.UOp, td)
		if err != nil {
			m.fail(err)
			return
		}
		for _, tr := range m.triggers {
			pb, err := m.CTPG[q].Trigger(tr.CW, tr.At)
			if err != nil {
				m.fail(err)
				return
			}
			m.applyPlayback(q, pb)
		}
	}
	if m.Cfg.TraceEvents {
		m.tracef(td, "pulse", "%s %s", e.UOp, e.Qubits)
	}
}

// applyPlayback converts a CTPG playback into a rotation on qubit q.
func (m *Machine) applyPlayback(q int, pb awg.Playback) {
	m.advance(q, pb.Start)
	v := m.rotationOf(q, pb)
	if v.theta != 0 {
		m.State.Apply1(v.mat, q)
	}
	if m.probe != nil {
		u := v.mat
		if v.theta == 0 {
			u = qphys.Matrix{}
		}
		m.probe.Pulse1(u, q)
	}
	m.PulsesPlayed++
}

// rotationOf demodulates the played waveform at its start time. Since
// the waveform content is fixed per codeword, the rotation depends only
// on the start time modulo the SSB period (hoisted into m.ssbPeriod by
// New), which makes it cacheable — including the rotation matrix itself,
// so the steady-state pulse path performs no demodulation and no
// allocation. A cached entry is demodulated at the key's phase, not at
// the absolute time that first missed: the two agree mathematically but
// not in their last bits, and the cache survives ResetState, so the
// entry must be a pure function of its key for a reused machine to
// match a fresh one bit for bit.
func (m *Machine) rotationOf(q int, pb awg.Playback) rotVal {
	period := m.ssbPeriod
	if period == 0 {
		phi, theta := pulse.Rotation(pb.Wave, m.Cfg.SSBHz, pb.Start)
		return rotVal{phi: phi, theta: theta, mat: qphys.REquator(phi, theta)}
	}
	key := rotKey{q: q, cw: pb.Codeword, phase: pb.Start % period}
	if v, ok := m.rotCache[key]; ok {
		return v
	}
	phi, theta := pulse.Rotation(pb.Wave, m.Cfg.SSBHz, key.phase)
	v := rotVal{phi: phi, theta: theta, mat: qphys.REquator(phi, theta)}
	m.rotCache[key] = v
	return v
}

// onMPG handles measurement-pulse generation: the digital output unit
// raises the outputs selected by QAddr for the pulse duration, gating
// the external measurement-carrier source (paper §7.1). The pulse only
// interrogates the resonator; its effect on the qubit (projection) is
// accounted for in onMD, which fires at the same time point in the
// paper's programs.
func (m *Machine) onMPG(e exec.MPGEvent, td clock.Cycle) {
	if err := m.Digital.Trigger(uint16(e.Qubits), e.Duration, td); err != nil {
		m.fail(err)
		return
	}
	if m.Cfg.TraceEvents {
		m.tracef(td, "mpg", "%s for %d cycles", e.Qubits, e.Duration)
	}
}

// onMD runs the measurement chain for each addressed qubit: advance
// physics to TD, project the state, synthesize the transmitted trace,
// integrate and discriminate in the MDU, record the integration result,
// and write the packed binary results to the destination register.
func (m *Machine) onMD(e exec.MDEvent, td clock.Cycle) {
	var packed int64
	for q := range e.Qubits.All() {
		if q >= m.Cfg.NumQubits {
			m.fail(fmt.Errorf("core: MD on absent qubit %d", q))
			return
		}
		m.advance(q, td.Samples())
		result := m.MeasureQubit(q)
		if m.probe != nil {
			m.probe.Measured(q, result)
		}
		if result == 1 {
			packed |= 1 << q
		}
		// The discrimination result is available Latency cycles after
		// integration; physics time advances accordingly.
		m.advance(q, (td + m.MDU.TotalLatency()).Samples())
	}
	// Single-qubit MD writes 0/1; multi-qubit MD packs bit q of the
	// result word, mirroring the combined-readout extension of §5.1.2.
	if e.Qubits.Count() == 1 && packed != 0 {
		packed = 1
	}
	m.Controller.WriteReg(e.Rd, packed)
	if m.Cfg.TraceEvents {
		m.tracef(td, "md", "%s -> %s", e.Qubits, e.Rd)
	}
}

// MeasureQubit runs the per-qubit measurement chain at the current state:
// project the register, sample the matched-filter integration result from
// its exact distribution (readout.MDU.SampleMeasure), record it in the
// data collection unit, and return the binary discrimination result. It
// consumes exactly two PRNG variates (projection + integration noise) —
// the contract the replay engine relies on to keep replayed shots
// bit-identical to full simulation. Shared by onMD and replay.
func (m *Machine) MeasureQubit(q int) int {
	return m.FinishMeasure(m.State.Measure(q, m.rng))
}

// FinishMeasure completes the measurement chain for an already-projected
// outcome: sample the matched-filter integration result from its exact
// distribution, record it in the data collection unit, and return the
// binary discrimination result. Compiled replay schedules project inside
// qphys.RunSchedule (consuming the projection variate from the machine
// PRNG the trajectory backend is bound to) and call back here, so the
// chain consumes the same two variates in the same order as
// MeasureQubit.
func (m *Machine) FinishMeasure(outcome int) int {
	result, s := m.MDU.SampleMeasure(outcome, m.rng)
	if m.Collector != nil {
		m.Collector.Record(s)
	}
	m.Measurements++
	return result
}

// tracef appends a timeline entry. Callers check Cfg.TraceEvents first:
// building the arguments boxes them, which the untraced per-shot path
// must not pay.
func (m *Machine) tracef(td clock.Cycle, kind, format string, args ...any) {
	m.trace = append(m.trace, TraceEntry{TD: td, Kind: kind, Desc: fmt.Sprintf(format, args...)})
}
