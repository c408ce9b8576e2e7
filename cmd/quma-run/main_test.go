package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
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
	run := func(mode replay.Mode) (replay.Stats, []shardReport) {
		st, reports, err := runShots(cfg, prog, 600, expt.Engine{ShotWorkers: 2, BatchLanes: 2, Replay: mode})
		if err != nil {
			t.Fatal(err)
		}
		return st, reports
	}
	_, want := run(replay.ModeOff)
	st, got := run(replay.ModeInterp)
	if !st.Safe || !st.Compiled {
		t.Fatalf("interp stats = %+v, want compiled replay", st)
	}
	for k := range want {
		if !reflect.DeepEqual(got[k].sums, want[k].sums) || !reflect.DeepEqual(got[k].counts, want[k].counts) {
			t.Fatalf("shard %d collector: interp (%v, %v), off (%v, %v)", k, got[k].sums, got[k].counts, want[k].sums, want[k].counts)
		}
	}
}

// TestRunShardedLaneGroupingIsNeutral drives expt.RunShots through the
// shared grouping policy — automatic lanes (0), scalar shards (1) and a
// cap (8) over the short remainder shard, at one, two and one-per-CPU
// shot workers — and demands identical merged stats and, shard by
// shard, an identical full report (counters, registers, P(|1⟩),
// collector, timeline) and reduced qubit state. The program ends on a
// Y90 pulse, so the state's coherences are nonzero and a phase error of
// the lane kernel or the lockstep path shows. The sharded count is
// pinned to its scalar run; the unsharded count to one replay.Run on
// core.New(cfg), the engine run the runner must reduce to. runShots,
// whose reports quma-run prints, must return each shard's report with
// the last-shard fields on the last shard only.
func TestRunShardedLaneGroupingIsNeutral(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.CollectK = 1
	cfg.TraceEvents = true
	prog := asm.MustAssemble("mov r15, 400\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nWait 340\nPulse {q0}, Y90\nWait 4\nhalt\n")
	// shard is what one shard's machine ends with: the full report, the
	// report runShots keeps of it, and the reduced state of qubit 0.
	type shard struct {
		full, printed shardReport
		rho           []complex128
	}
	for _, shots := range []int{100, 600} {
		n := expt.ShotShardCount(shots)
		capture := func(k int, m *core.Machine) shard {
			return shard{reportOf(m, true), reportOf(m, k == n-1), m.State.ReducedQubit(0).Data}
		}
		run := func(workers, lanes int) (replay.Stats, []shard) {
			got := make([]shard, n)
			st, err := expt.RunShots(context.Background(), cfg, prog, shots, expt.Engine{ShotWorkers: workers, BatchLanes: lanes, Replay: replay.ModeAuto},
				func(k int, m *core.Machine, _ replay.Stats) error {
					got[k] = capture(k, m)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			return st, got
		}
		var wantStats replay.Stats
		var want []shard
		if shots <= expt.ShotShardSize {
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wantStats, err = replay.Run(context.Background(), m, prog, replay.Options{Shots: shots, Mode: replay.ModeAuto}); err != nil {
				t.Fatal(err)
			}
			want = []shard{capture(0, m)}
		} else {
			wantStats, want = run(1, 1)
		}
		if !wantStats.Compiled || wantStats.Shots != shots {
			t.Fatalf("shots=%d reference: stats %+v, want compiled shots", shots, wantStats)
		}
		if last := want[n-1]; len(last.full.trace) == 0 || last.full.rounds == 0 || last.full.pulses == 0 || last.rho[1] == 0 {
			t.Fatalf("shots=%d reference: last shard %+v carries no timeline, collector rounds, pulses or coherence", shots, last)
		}
		for _, workers := range []int{1, 2, 0} {
			for _, lanes := range []int{0, 1, 8} {
				st, got := run(workers, lanes)
				if st != wantStats {
					t.Fatalf("shots=%d workers=%d lanes=%d: stats %+v, reference %+v", shots, workers, lanes, st, wantStats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shots=%d workers=%d lanes=%d: shards\n%+v\nreference\n%+v", shots, workers, lanes, got, want)
				}
				st, reports, err := runShots(cfg, prog, shots, expt.Engine{ShotWorkers: workers, BatchLanes: lanes, Replay: replay.ModeAuto})
				if err != nil {
					t.Fatal(err)
				}
				if st != wantStats || len(reports) != n {
					t.Fatalf("shots=%d workers=%d lanes=%d: runShots stats %+v over %d reports, reference %+v over %d", shots, workers, lanes, st, len(reports), wantStats, n)
				}
				for k := range reports {
					if !reflect.DeepEqual(reports[k], want[k].printed) {
						t.Fatalf("shots=%d workers=%d lanes=%d: runShots shard %d report\n%+v\nreference\n%+v", shots, workers, lanes, k, reports[k], want[k].printed)
					}
				}
			}
		}
	}
}

// TestPrintedRunIsNeutral is TestRunShardedLaneGroupingIsNeutral's
// sibling with the event timeline off, so a pooled machine that has
// already proven the program replays its lead shots instead of running
// the pipeline. What quma-run prints must not depend on where that
// happened: the printed stdout is diffed across one, two and
// one-per-CPU shot workers and automatic, scalar and capped lanes, and
// the test demands that some shard skipped its pipeline lead (its
// machine executed no instruction). Under -replay off every shot runs
// the pipeline, so the full instruction count and the registers print.
func TestPrintedRunIsNeutral(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.CollectK = 1
	prog := asm.MustAssemble("mov r15, 400\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nWait 340\nPulse {q0}, Y90\nWait 4\nhalt\n")
	const shots = 1536
	printed := func(eng expt.Engine) (string, []shardReport) {
		st, reports, err := runShots(cfg, prog, shots, eng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		printRun(&buf, reports, &st, cfg.CollectK, false)
		return buf.String(), reports
	}
	off, _ := printed(expt.Engine{ShotWorkers: 1, Replay: replay.ModeOff})
	if want := fmt.Sprintf("program completed: %d instructions executed\n", 10*shots); !strings.Contains(off, want) || !strings.Contains(off, "registers:\n") {
		t.Fatalf("-replay off report lacks %q or the registers:\n%s", want, off)
	}
	want, _ := printed(expt.Engine{ShotWorkers: 1, BatchLanes: 1, Replay: replay.ModeAuto})
	if strings.Contains(want, "instructions executed") || strings.Contains(want, "registers:") {
		t.Fatalf("replayed run prints lead-shot classical state:\n%s", want)
	}
	skipped := false
	for _, workers := range []int{1, 2, 0} {
		for _, lanes := range []int{0, 1, 8} {
			got, reports := printed(expt.Engine{ShotWorkers: workers, BatchLanes: lanes, Replay: replay.ModeAuto})
			if got != want {
				t.Fatalf("workers=%d lanes=%d printed\n%s\nreference\n%s", workers, lanes, got, want)
			}
			for _, r := range reports {
				skipped = skipped || r.steps == 0
			}
		}
	}
	if !skipped {
		t.Fatal("no shard replayed its lead shots: the test no longer exercises the skip")
	}
}
