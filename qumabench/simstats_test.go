package main

import (
	"io"
	"strings"
	"testing"
)

func TestSimStatsCheckedIn(t *testing.T) {
	for name, w := range map[string]*inprocWorkload{"rb_sweep": rbSweep(1), "repcode_lanes": repCodeLanes(1)} {
		b := &bench{workload: name, seed: 1, out: io.Discard, metrics: make(map[string]metric)}
		b.checkSimStats(w.unit)
		if len(b.problems) != 0 {
			t.Errorf("%s: %v", name, b.problems)
		}
	}
}

func TestSimStatsChangeFails(t *testing.T) {
	saved := expectedSimStats
	defer func() { expectedSimStats = saved }()
	expectedSimStats = []byte(strings.Replace(string(saved), `"pulse": 13`, `"pulse": 14`, 1))
	b := &bench{workload: "repcode_lanes", seed: 1, out: io.Discard, metrics: make(map[string]metric)}
	b.checkSimStats(repCodeLanes(1).unit)
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], "differ from simstats.json") {
		t.Errorf("problems %v, want one simstats mismatch", b.problems)
	}
}
