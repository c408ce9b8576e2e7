package quma

// Golden end-to-end tests for the examples: each example runs as a real
// `go run` subprocess with pinned seeds and its stdout is compared
// byte-for-byte against the committed snapshot under testdata/golden/.
// User-facing behaviour therefore cannot drift silently — any change to
// program output, float formatting, experiment defaults, or the
// simulator physics shows up as a golden diff that must be reviewed and
// regenerated deliberately:
//
//	go test -run TestExamplesGolden -update .
//
// The outputs are deterministic by the repo's standing contracts: fixed
// seeds fix every PRNG stream, and sweep results are independent of
// worker count and replay mode.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden outputs under testdata/golden/ instead of diffing against them")

// goldenExamples pins each example's invocation. Flags keep the runs
// small; every example retains its default seed so the snapshot also
// guards the documented outputs users first see.
var goldenExamples = []struct {
	name string
	args []string
}{
	{"quickstart", nil},
	{"cnot", nil},
	{"feedback", []string{"-shots", "500"}},
	{"rb", []string{"-trials", "3", "-rounds", "60"}},
	{"repcode", []string{"-rounds", "150"}},
}

func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("examples build and run as subprocesses; skipped in -short")
	}
	for _, ex := range goldenExamples {
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", "./examples/" + ex.name}, ex.args...)
			cmd := exec.Command("go", args...)
			cmd.Dir = "."
			var stdout, stderr bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go %v: %v\nstderr:\n%s", args, err, stderr.Bytes())
			}
			checkGolden(t, "TestExamplesGolden", ex.name+".txt", stdout.Bytes())
		})
	}
}

// checkGolden compares got with the snapshot testdata/golden/<file>, or
// rewrites the snapshot under -update. test names the test that
// regenerates it.
func checkGolden(t *testing.T, test, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update .` to create the snapshot)", err, test)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s:\n%s", path, diffLines(want, got))
	}
}

// diffLines renders a minimal first-divergence report: full diffs of
// multi-screen outputs drown the signal.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %q\n  got:    %q", i+1, wl, gl)
		}
	}
	return "outputs differ only in length"
}
