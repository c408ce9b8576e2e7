package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// smoke runs one workload for a second and returns its result line.
func smoke(t *testing.T, workload, trace string) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--build-dir", t.TempDir()}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v\n%s", res, stdout.String())
	}
	want := e2eMetrics
	if trace == "1" {
		want = layerMetrics
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("metrics %v, want %v", got, want)
	}
	return res
}

func TestSmokeRBSweep(t *testing.T)      { smoke(t, "rb_sweep", "0") }
func TestSmokeRepCodeLanes(t *testing.T) { smoke(t, "repcode_lanes", "0") }

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take several seconds of layer measurements")
	}
	for _, w := range []string{"rb_sweep", "repcode_lanes"} {
		t.Run(w, func(t *testing.T) {
			res := smoke(t, w, "1")
			if res.Metrics["core.ops_per_shot.pulse"].Value <= 0 {
				t.Errorf("no pulses counted: %+v", res.Metrics)
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--build-dir", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Fatal("an unknown workload must exit non-zero")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Error("a failed run must not print a result")
	}
}
