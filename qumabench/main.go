// Command qumabench is the repository's performance benchmark: it runs
// one named workload against the QuMA stack from outside, times only
// calls into public entry points, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its wrapper, which builds
// this command into .bench_build first:
//
//	bash qumabench/run.sh --workload rb_sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: rb_sweep and repcode_lanes call expt.Env in-process. See
// README.md for the metrics, what each layer metric should move, and the
// load model.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the result line.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qumabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: rb_sweep or repcode_lanes")
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	buildDir := fs.String("build-dir", ".bench_build", "directory for built binaries, spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "qumabench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		buildDir: *buildDir,
		out:      stdout,
		metrics:  make(map[string]metric),
	}
	if err := b.run(context.Background()); err != nil {
		fmt.Fprintln(stderr, "qumabench:", err)
		return 1
	}
	line, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintln(stderr, "qumabench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run dispatches to the workload inside a scratch directory that is
// removed afterwards.
func (b *bench) run(ctx context.Context) error {
	if err := os.MkdirAll(b.buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.buildDir, "run-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	b.workDir = dir
	fmt.Fprintf(b.out, "qumabench workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.trace)
	switch b.workload {
	case "rb_sweep":
		err = runInproc(ctx, b, rbSweep(b.seed))
	case "repcode_lanes":
		err = runInproc(ctx, b, repCodeLanes(b.seed))
	default:
		return fmt.Errorf("unknown workload %q (want rb_sweep or repcode_lanes)", b.workload)
	}
	if err == nil {
		b.checkComplete()
	}
	return err
}
