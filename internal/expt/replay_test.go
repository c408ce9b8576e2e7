package expt

import (
	"context"
	"fmt"
	"testing"

	"quma/internal/core"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// Property: for every experiment, on both backends and for any worker
// count, results produced with compiled shot replay (compiled/auto) are
// bit-identical to full per-shot simulation (off). This is the engine's contract — replay may
// only change speed, never a single bit of output — and it holds whether
// the experiment replays (T1/Ramsey/AllXY/RB/uncorrected repcode) or is
// detected unsafe and falls back (corrected repcode, phase code).

// replayModes are the engine modes every experiment must agree across.
var replayModes = []replay.Mode{replay.ModeOff, replay.ModeCompiled}

func forBackendsAndWorkers(t *testing.T, f func(t *testing.T, backend core.Backend, workers int)) {
	for _, b := range []core.Backend{core.BackendDensity, core.BackendTrajectory} {
		for _, w := range []int{1, 3} {
			b, w := b, w
			t.Run(fmt.Sprintf("%s/workers-%d", b, w), func(t *testing.T) {
				f(t, b, w)
			})
		}
	}
}

func TestT1ReplayMatchesFullSimulation(t *testing.T) {
	forBackendsAndWorkers(t, func(t *testing.T, backend core.Backend, workers int) {
		p := DefaultSweepParams()
		p.Rounds = 60
		p.Workers = workers
		var prev []float64
		for _, mode := range replayModes {
			cfg := core.DefaultConfig()
			cfg.Backend = backend
			q := p
			q.Replay = mode
			res, err := NewEnv().RunT1(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res.Excited
				continue
			}
			for i := range prev {
				if prev[i] != res.Excited[i] {
					t.Fatalf("point %d: off=%v auto=%v", i, prev[i], res.Excited[i])
				}
			}
		}
	})
}

func TestRamseyReplayMatchesFullSimulation(t *testing.T) {
	forBackendsAndWorkers(t, func(t *testing.T, backend core.Backend, workers int) {
		qp := qphys.DefaultQubitParams()
		qp.FreqDetuningHz = 100e3
		p := DefaultSweepParams()
		p.Rounds = 50
		p.Workers = workers
		p.DelaysCycles = nil
		for k := 0; k < 20; k++ {
			p.DelaysCycles = append(p.DelaysCycles, k*200)
		}
		var prev []float64
		for _, mode := range replayModes {
			cfg := core.DefaultConfig()
			cfg.Backend = backend
			cfg.Qubit = []qphys.QubitParams{qp}
			q := p
			q.Replay = mode
			res, err := NewEnv().RunRamsey(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res.Excited
				continue
			}
			for i := range prev {
				if prev[i] != res.Excited[i] {
					t.Fatalf("point %d: off=%v auto=%v", i, prev[i], res.Excited[i])
				}
			}
		}
	})
}

func TestAllXYReplayMatchesFullSimulation(t *testing.T) {
	forBackendsAndWorkers(t, func(t *testing.T, backend core.Backend, workers int) {
		p := DefaultAllXYParams()
		p.Rounds = 40
		p.Workers = workers
		var prev *AllXYResult
		for _, mode := range replayModes {
			cfg := core.DefaultConfig()
			cfg.Backend = backend
			q := p
			q.Replay = mode
			res, err := NewEnv().RunAllXY(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res
				continue
			}
			for i := range prev.Raw {
				if prev.Raw[i] != res.Raw[i] {
					t.Fatalf("raw %d: off=%v auto=%v", i, prev.Raw[i], res.Raw[i])
				}
			}
			if prev.PulsesPlayed != res.PulsesPlayed {
				t.Fatalf("pulses: off=%d auto=%d", prev.PulsesPlayed, res.PulsesPlayed)
			}
		}
	})
}

func TestRBReplayMatchesFullSimulation(t *testing.T) {
	forBackendsAndWorkers(t, func(t *testing.T, backend core.Backend, workers int) {
		p := DefaultRBParams()
		p.Lengths = []int{1, 4, 8, 16}
		p.Trials = 2
		p.Rounds = 40
		p.Workers = workers
		var prev *RBResult
		for _, mode := range replayModes {
			cfg := core.DefaultConfig()
			cfg.Backend = backend
			q := p
			q.Replay = mode
			res, err := NewEnv().RunRB(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res
				continue
			}
			for i := range prev.Survival {
				if prev.Survival[i] != res.Survival[i] {
					t.Fatalf("length %d: off=%v auto=%v", i, prev.Survival[i], res.Survival[i])
				}
			}
		}
	})
}

func TestRepCodeReplayMatchesFullSimulation(t *testing.T) {
	forBackendsAndWorkers(t, func(t *testing.T, backend core.Backend, workers int) {
		p := DefaultRepCodeParams()
		p.Rounds = 120
		p.Workers = workers
		var prev *RepCodeResult
		for _, mode := range replayModes {
			cfg := core.DefaultConfig()
			cfg.Backend = backend
			q := p
			q.Replay = mode
			res, err := NewEnv().RunRepCode(context.Background(), cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			if prev == nil {
				prev = res
				continue
			}
			if prev.Unprotected != res.Unprotected || prev.Uncorrected != res.Uncorrected || prev.Protected != res.Protected {
				t.Fatalf("rates differ: off=%+v auto=%+v", prev, res)
			}
		}
	})
}

func TestPhaseCodeReplayMatchesFullSimulation(t *testing.T) {
	// The phase code's active reset is cross-shot feedback: it must fall
	// back — and still produce bit-identical results.
	p := DefaultRepCodeParams()
	p.Rounds = 80
	p.WaitCycles = 800
	var prev *PhaseCodeResult
	for _, mode := range replayModes {
		cfg := core.DefaultConfig()
		for i := 0; i < 5; i++ {
			cfg.Qubit = append(cfg.Qubit, DephasingQubit(20e-6))
		}
		q := p
		q.Replay = mode
		res, err := NewEnv().RunPhaseCode(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			prev = res
			continue
		}
		if prev.Bare != res.Bare || prev.Protected != res.Protected {
			t.Fatalf("rates differ: off=%+v auto=%+v", prev, res)
		}
	}
}

func TestRepCodeShotProgramSafety(t *testing.T) {
	// Structural check of the safety split: the syndromes-only per-shot
	// program never consumes a measurement register; the corrected one
	// branches on syndromes.
	p := DefaultRepCodeParams()
	plain := RepCodeShotProgram(p, false)
	corrected := RepCodeShotProgram(p, true)
	for _, bad := range []string{"beq", "bne", "blt", "add "} {
		if containsInstr(plain, bad) {
			t.Errorf("uncorrected shot program contains %q:\n%s", bad, plain)
		}
	}
	if !containsInstr(corrected, "beq") {
		t.Error("corrected shot program lost its feedback branches")
	}
}

func containsInstr(src, instr string) bool {
	for _, line := range splitLines(src) {
		if len(line) >= len(instr) && line[:len(instr)] == instr {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
