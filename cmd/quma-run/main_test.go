package main

import (
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/replay"
)

func TestValidateFlags(t *testing.T) {
	good := []struct {
		backend, mode             string
		shots, shotWorkers, lanes int
		want                      replay.Mode
	}{
		{"density", "auto", 1, 0, 0, replay.ModeAuto},
		{"trajectory", "compiled", 10000, 0, 8, replay.ModeCompiled},
		{"trajectory", "interp", 2, 1, 0, replay.ModeInterp}, // deprecated alias, echoed
		{"density", "off", 5, 8, 1, replay.ModeOff},
		{"density", "", 1, 0, 0, replay.ModeAuto},
	}
	for _, c := range good {
		mode, err := validateFlags(c.backend, c.mode, c.shots, c.shotWorkers, c.lanes)
		if err != nil || mode != c.want {
			t.Errorf("validateFlags(%q, %q, %d, %d, %d) = (%q, %v), want (%q, nil)", c.backend, c.mode, c.shots, c.shotWorkers, c.lanes, mode, err, c.want)
		}
	}
	bad := []struct {
		backend, mode             string
		shots, shotWorkers, lanes int
	}{
		{"densty", "auto", 1, 0, 0},     // typo'd backend must not default
		{"", "auto", 1, 0, 0},           // empty backend is not a selection
		{"density", "repaly", 10, 0, 0}, // typo'd mode must not default
		{"density", "auto", 0, 0, 0},    // zero shots runs nothing
		{"density", "auto", -3, 0, 0},
		{"density", "auto", 10, -1, 0}, // negative shot-workers must not default
		{"density", "auto", 10, 0, -2}, // negative lanes must not default
	}
	for _, c := range bad {
		if _, err := validateFlags(c.backend, c.mode, c.shots, c.shotWorkers, c.lanes); err == nil {
			t.Errorf("validateFlags(%q, %q, %d, %d, %d) accepted invalid flags", c.backend, c.mode, c.shots, c.shotWorkers, c.lanes)
		}
	}
}

// TestInterpAliasRunsCompiled drives the sharded lane path with the
// deprecated -replay=interp: it must run compiled replay and produce the
// data collection unit's exact sums and counts of -replay=off.
func TestInterpAliasRunsCompiled(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.CollectK = 1
	prog := asm.MustAssemble("mov r15, 40000\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n")
	plan := expt.ShotShardPlan(600)
	run := func(mode replay.Mode) (replay.Stats, []float64, []int) {
		st, ms, err := runSharded(cfg, prog, plan, 2, 2, mode)
		if err != nil {
			t.Fatal(err)
		}
		var sums []float64
		var counts []int
		for _, m := range ms {
			sums = append(sums, m.Collector.Sums()...)
			counts = append(counts, m.Collector.Counts()...)
		}
		return st, sums, counts
	}
	_, wantSums, wantCounts := run(replay.ModeOff)
	st, sums, counts := run(replay.ModeInterp)
	if !st.Safe || !st.Compiled {
		t.Fatalf("interp stats = %+v, want compiled replay", st)
	}
	for i := range wantSums {
		if sums[i] != wantSums[i] || counts[i] != wantCounts[i] {
			t.Fatalf("shard collector %d: interp (%v, %d), off (%v, %d)", i, sums[i], counts[i], wantSums[i], wantCounts[i])
		}
	}
}
