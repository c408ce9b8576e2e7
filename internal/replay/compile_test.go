package replay

import (
	"context"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/qphys"
)

// Unit tests of the schedule compiler: lowering, channel-table
// deduplication, carry linking, and the machine-resident compile cache.

func TestCompileScheduleLowering(t *testing.T) {
	kraus := qphys.DecoherenceChannel(8e-6, qphys.DefaultQubitParams())
	x90 := qphys.REquator(0, 1.5)
	y180 := qphys.REquator(1.2, 3.1)
	rz := qphys.RZ(0.3)
	cz := qphys.CZ()
	// A diagonal phase gate other than the CZ: it keeps every |a|², yet
	// the machine never records it, so it lowers to a plain SchedApply2
	// that no carry crosses.
	cs := qphys.Identity(4)
	cs.Set(3, 3, 1i)
	sched := []op{
		{kind: opPulse, q: 0, u: x90},
		{kind: opPulse, q: 0, u: y180},           // adjacent same-qubit: its own step
		{kind: opIdle, q: 0, u: rz},              // detuning phase of an identity idle: a unitary step
		{kind: opIdle, q: 1, kraus: kraus},       // channel
		{kind: opIdle, q: 2, kraus: kraus},       // same cached slice: shared table
		{kind: opGate2, q: 0, qb: 1, u: cz},      // CZ: NegateBoth
		{kind: opIdle, q: 0, kraus: kraus},       // carry passes through the CZ
		{kind: opPulse, q: 3, u: qphys.Matrix{}}, // timing-only pulse: counter only
		{kind: opMeasure, q: 0},
		{kind: opIdle, q: 1, kraus: kraus},  // producer before a non-CZ gate
		{kind: opGate2, q: 1, qb: 2, u: cs}, // non-CZ: SchedApply2, breaks the chain
		{kind: opIdle, q: 2, kraus: kraus},  // consumer after it: no carry across
	}
	c := compileSchedule(sched)
	if c.pulses != 5 {
		t.Errorf("pulses = %d, want 5 (3 pulses + 2 flux)", c.pulses)
	}
	if c.nMD != 1 {
		t.Errorf("nMD = %d, want 1", c.nMD)
	}
	// Every recorded operation with an effect lowers to exactly one step
	// applying the recorded operator: nothing is merged.
	kinds := []uint8{qphys.SchedApply1RD, qphys.SchedApply1RD, qphys.SchedApply1, qphys.SchedChannel, qphys.SchedChannel,
		qphys.SchedCZ, qphys.SchedChannel, qphys.SchedMeasure, qphys.SchedChannel, qphys.SchedApply2, qphys.SchedChannel}
	if len(c.ops) != len(kinds) {
		t.Fatalf("compiled to %d steps, want %d: %+v", len(c.ops), len(kinds), c.ops)
	}
	for i, k := range kinds {
		if c.ops[i].Kind != k {
			t.Errorf("step %d kind = %d, want %d", i, c.ops[i].Kind, k)
		}
	}
	for i, u := range []qphys.Matrix{x90, y180, rz} {
		if &c.ops[i].U.Data[0] != &u.Data[0] {
			t.Errorf("step %d must apply the recorded operator itself", i)
		}
	}
	if c.ops[3].Ch != c.ops[4].Ch || c.ops[3].Ch != c.ops[6].Ch || c.ops[3].Ch != c.ops[10].Ch {
		t.Error("identical cached Kraus slices must share one ChannelTable")
	}
	// Carry links: channel(q1)→channel(q2); channel(q2)→channel(q0)
	// through the CZ; channel(q0)→measure(q0). No unitary step carries
	// (none precedes a consumer on its own qubit), the measurement cannot
	// carry for another qubit, channel(q1) cannot reach channel(q2) across
	// the non-CZ gate, and no wrap-around link exists: the schedule
	// starts with a unitary.
	for i, want := range []int16{-1, -1, -1, 2, 0, -1, 0, -1, -1, -1, -1} {
		if got := c.ops[i].CarryFor; got != want {
			t.Errorf("step %d carries for %d, want %d", i, got, want)
		}
	}
}

// TestCompileCacheReuse verifies the machine-resident memo: a second run
// of the same program on the same machine reuses the compiled schedule,
// a different program recompiles, and results stay bit-identical to a
// fresh machine either way.
func TestCompileCacheReuse(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.Seed = 3
	cfg.CollectK = 1
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := asm.MustAssemble(simpleShot)
	if _, err := Run(context.Background(), m, prog, Options{Shots: 20, Mode: ModeCompiled}); err != nil {
		t.Fatal(err)
	}
	cache1, ok := m.ReplayCache.(memo)
	if !ok || cache1[prog].e == nil {
		t.Fatal("first compiled run must populate the machine cache")
	}
	e1 := cache1[prog].e
	m.ResetState(4)
	if _, err := Run(context.Background(), m, prog, Options{Shots: 20, Mode: ModeCompiled}); err != nil {
		t.Fatal(err)
	}
	e2 := m.ReplayCache.(memo)[prog].e
	if e1.c != e2.c {
		t.Error("re-running the same program must reuse the compiled schedule")
	}
	// A different program compiles its own keyed entry — and leaves the
	// first program's entry in place, so interleaving programs on one
	// pooled machine (the batch-service pattern) never thrashes the memo.
	other := asm.MustAssemble(`
mov r15, 40000
QNopReg r15
Pulse {q0}, X180
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`)
	m.ResetState(5)
	if _, err := Run(context.Background(), m, other, Options{Shots: 20, Mode: ModeCompiled}); err != nil {
		t.Fatal(err)
	}
	cache2 := m.ReplayCache.(memo)
	if cache2[other].e == nil || cache2[other].e.c == e1.c {
		t.Error("a different program must compile its own entry")
	}
	if cache2[prog].e == nil || cache2[prog].e.c != e2.c {
		t.Error("the first program's entry must survive a second program")
	}
	m.ResetState(6)
	if _, err := Run(context.Background(), m, prog, Options{Shots: 20, Mode: ModeCompiled}); err != nil {
		t.Fatal(err)
	}
	if got := m.ReplayCache.(memo)[prog].e; got == nil || got.c != e2.c {
		t.Error("returning to the first program must hit its keyed entry")
	}
	// And a cached run must equal a fresh machine bit for bit.
	m.ResetState(9)
	var pooled [][]MD
	if _, err := Run(context.Background(), m, prog, Options{Shots: 25, Mode: ModeCompiled, OnShot: func(_ int, md []MD) {
		pooled = append(pooled, append([]MD(nil), md...))
	}}); err != nil {
		t.Fatal(err)
	}
	c2 := cfg
	c2.Seed = 9
	_, fresh, mf := runEngine(t, c2, simpleShot, 25, ModeCompiled)
	requireIdentical(t, fresh, pooled, mf, m)
}

// BenchmarkCompiledShot measures one compiled replayed shot of the d=3
// repetition-code round in isolation — the per-shot unit the issue's
// 0 allocs/shot acceptance is stated over.
func BenchmarkCompiledShot(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.NumQubits = 5
	cfg.Seed = 1
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog := asm.MustAssemble(repCodeShotSrc)
	// Record and compile through the engine once.
	if _, err := Run(context.Background(), m, prog, Options{Shots: detectShots + 1, Mode: ModeCompiled}); err != nil {
		b.Fatal(err)
	}
	cacheMap, ok := m.ReplayCache.(memo)
	if !ok || cacheMap[prog].e == nil {
		b.Fatal("no compiled schedule cached")
	}
	cache := cacheMap[prog].e
	tr := m.State.(*qphys.Trajectory)
	md := make([]MD, 0, cache.c.nMD)
	measure := func(q, outcome int) {
		md = append(md, MD{Qubit: q, Result: m.FinishMeasure(outcome)})
	}
	carry, carryQ := qphys.PopCarry{}, -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md = md[:0]
		carry, carryQ = tr.RunSchedule(cache.c.ops, carry, carryQ, measure)
	}
}

// repCodeShotSrc is the d=3 syndromes-only repetition-code shot (the
// expt generator's output for the default parameters), inlined to avoid
// an import cycle with internal/expt.
const repCodeShotSrc = `
mov r15, 40000
QNopReg r15
Pulse {q0}, X180
Wait 4
Apply2 CNOT, q1, q0
Apply2 CNOT, q2, q0
Wait 1600
Apply2 CNOT, q3, q0
Apply2 CNOT, q3, q1
Apply2 CNOT, q4, q1
Apply2 CNOT, q4, q2
Measure q3, r7
Measure q4, r8
Wait 340
Measure q0, r9
Measure q1, r10
Measure q2, r11
Wait 340
halt
`
