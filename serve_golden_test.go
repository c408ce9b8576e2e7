package quma

// Golden test for the service's result bytes: `quma-serve -once` runs a
// committed batch and its stdout is compared byte for byte with
// testdata/golden/serve_once.json. The batch holds one request of each
// experiment type, sets the result-neutral knobs (workers, shot_workers,
// batch_lanes) on some requests, spells the replay mode every accepted
// way ("", auto, compiled, interp, off), and includes points above
// expt.ShotShardSize, so the snapshot pins sharded, lane-batched and
// scalar results and the params echo across commits. Regenerate it
// deliberately, with a ResultSchemaVersion bump when bytes change:
//
//	go test -run TestServeOnceGolden -update .

import (
	"bytes"
	"os/exec"
	"testing"
)

func TestServeOnceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quma-serve builds and runs as a subprocess; skipped in -short")
	}
	args := []string{"run", "./cmd/quma-serve", "-once", "testdata/serve_once_batch.json"}
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %v: %v\nstderr:\n%s", args, err, stderr.Bytes())
	}
	checkGolden(t, "TestServeOnceGolden", "serve_once.json", stdout.Bytes())
}
