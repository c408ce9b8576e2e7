package expt

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"quma/internal/core"
)

// The sweep-engine contract: results are bit-identical regardless of the
// worker count, and the returned error is the lowest-index failure.

func TestDeriveSeedIsStableAndSpreads(t *testing.T) {
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) || DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("derived seeds collide on adjacent inputs")
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed is not a pure function")
	}
	for i := 0; i < 100; i++ {
		if DeriveSeed(42, i) < 0 {
			t.Fatalf("DeriveSeed(42, %d) is negative", i)
		}
	}
}

func TestRunPoolRunsAllJobsAndReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := runPool(context.Background(), 10, workers, func(i int) error {
			ran.Add(1)
			if i == 3 || i == 7 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if got := ran.Load(); got != 10 {
			t.Errorf("workers=%d: ran %d jobs, want all 10", workers, got)
		}
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: err = %v, want lowest-index failure (job 3)", workers, err)
		}
	}
}

func TestChunkRoundsPartition(t *testing.T) {
	got := chunkRounds(60, 25)
	want := []int{25, 25, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunkRounds(60, 25) = %v, want %v", got, want)
	}
	total := 0
	for _, c := range chunkRounds(301, repCodeChunkRounds) {
		total += c
	}
	if total != 301 {
		t.Errorf("chunks sum to %d, want 301", total)
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// A T1 delay sweep must be bit-identical with 1 worker and with one
	// worker per CPU.
	cfg := core.DefaultConfig()
	p := DefaultSweepParams()
	p.Rounds = 30
	p.DelaysCycles = p.DelaysCycles[:8]
	run := func(workers int) *T1Result {
		t.Helper()
		q := p
		q.Workers = workers
		res, err := NewEnv().RunT1(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Excited, parallel.Excited) {
		t.Errorf("T1 sweep differs across worker counts:\n 1 worker: %v\n N workers: %v",
			serial.Excited, parallel.Excited)
	}
	if serial.Fit != parallel.Fit {
		t.Errorf("T1 fit differs: %+v vs %+v", serial.Fit, parallel.Fit)
	}
}

func TestRBDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRBParams()
	p.Lengths = []int{1, 16, 64, 128}
	p.Trials = 2
	p.Rounds = 40
	run := func(workers int) *RBResult {
		t.Helper()
		q := p
		q.Workers = workers
		res, err := NewEnv().RunRB(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Survival, parallel.Survival) {
		t.Errorf("RB survival differs across worker counts:\n%v\n%v", serial.Survival, parallel.Survival)
	}
	if !reflect.DeepEqual(serial.PerTrial, parallel.PerTrial) {
		t.Errorf("RB per-trial results differ across worker counts")
	}
	if serial.Fit.ErrorPerClifford() != parallel.Fit.ErrorPerClifford() {
		t.Errorf("RB fitted error per Clifford differs: %v vs %v",
			serial.Fit.ErrorPerClifford(), parallel.Fit.ErrorPerClifford())
	}
}

func TestRepCodeDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRepCodeParams()
	p.Rounds = 60 // spans multiple chunks
	run := func(workers int) *RepCodeResult {
		t.Helper()
		q := p
		q.Workers = workers
		res, err := NewEnv().RunRepCode(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if serial.Unprotected != parallel.Unprotected ||
		serial.Uncorrected != parallel.Uncorrected ||
		serial.Protected != parallel.Protected {
		t.Errorf("repcode error rates differ across worker counts:\n 1 worker: %+v\n N workers: %+v",
			serial, parallel)
	}
}

func TestAllXYDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultAllXYParams()
	p.Rounds = 40
	run := func(workers int) *AllXYResult {
		t.Helper()
		q := p
		q.Workers = workers
		res, err := NewEnv().RunAllXY(context.Background(), cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Raw, parallel.Raw) {
		t.Errorf("AllXY raw averages differ across worker counts")
	}
	if serial.Deviation != parallel.Deviation {
		t.Errorf("AllXY deviation differs: %v vs %v", serial.Deviation, parallel.Deviation)
	}
	if serial.PulsesPlayed != parallel.PulsesPlayed {
		t.Errorf("AllXY pulse accounting differs: %d vs %d", serial.PulsesPlayed, parallel.PulsesPlayed)
	}
}
