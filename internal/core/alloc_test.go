package core_test

import (
	"math/rand"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/isa"
)

// TestFullPipelineShotDoesNotAllocate pins the steady-state cost of the
// full QuMA pipeline (controller → microcode → QMB → timing queues →
// µop unit → CTPG/MDU → state backend): once a machine has run a program
// (its caches and queue buffers warmed), further shots and ResetState
// allocate nothing, on both backends, with no probe and TraceEvents off.
// The lead/detect shots of every replay shard and every shot of a
// feedback program pay this path.
func TestFullPipelineShotDoesNotAllocate(t *testing.T) {
	// The pulse-heaviest single-qubit shot (RB m=128, the longest
	// sequence an RB sweep runs) and the d=3 repetition code (QIS CNOTs
	// and Measure expanded by the microcode unit, five qubits).
	pulses, _ := expt.RandomCliffordSequence(128, rand.New(rand.NewSource(128)))
	shots := []struct {
		name   string
		qubits int
		prog   *isa.Program
	}{
		{"rb_m128", 1, asm.MustAssemble(expt.RBShotProgram(expt.DefaultRBParams(), pulses))},
		{"repcode_d3", 5, asm.MustAssemble(expt.RepCodeShotProgram(expt.DefaultRepCodeParams(), false))},
	}
	for _, sp := range shots {
		for _, backend := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
			t.Run(sp.name+"/"+string(backend), func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Backend = backend
				cfg.NumQubits = sp.qubits
				cfg.CollectK = 1
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var runErr error
				shot := func() {
					if err := m.RunProgram(sp.prog); err != nil {
						runErr = err
					}
				}
				// One shard of the sweep engine: a reset, then the cold
				// shot and two steady-state shots (replay's lead/detect
				// pattern). Run once to warm the caches and buffers.
				shard := func() {
					m.ResetState(7)
					for i := 0; i < 3; i++ {
						shot()
					}
				}
				shard()
				if runErr != nil {
					t.Fatal(runErr)
				}
				if n := testing.AllocsPerRun(20, shard); n != 0 {
					t.Errorf("ResetState + 3 shots: %v allocs per shard, want 0", n)
				}
				if n := testing.AllocsPerRun(20, func() { m.ResetState(7) }); n != 0 {
					t.Errorf("ResetState: %v allocs per reset, want 0", n)
				}
				// Back-to-back shots with no reset in between. The CTPG
				// playback and digital-output logs record every shot until
				// the next reset, so they grow by amortized append;
				// truncating them isolates the pipeline itself.
				steady := func() {
					for _, c := range m.CTPG {
						c.ResetPlaybacks()
					}
					m.Digital.Reset()
					shot()
				}
				if n := testing.AllocsPerRun(20, steady); n != 0 {
					t.Errorf("RunProgram: %v allocs per shot, want 0", n)
				}
				if runErr != nil {
					t.Fatal(runErr)
				}
			})
		}
	}
}
