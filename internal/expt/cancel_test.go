package expt

// Cancellation determinism: a context can abort an experiment, never
// perturb one. The tests here pin the three halves of that contract —
// a canceled experiment returns a wrapped ctx error and no result; a
// pool that served a canceled sweep stays sound (ResetState makes its
// machines bit-identical to fresh ones for the next caller); and an
// experiment that completes while a concurrent duplicate is canceled is
// bit-identical to an uncancellable run. CI runs this file under -race.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"quma/internal/core"
)

// cancelParams is a sweep big enough that randomized cancellation lands
// at many different interior points.
func cancelParams(workers int) SweepParams {
	p := DefaultSweepParams()
	p.Rounds = 40
	p.DelaysCycles = []int{0, 200, 400, 800, 1200, 1600, 2400, 3200}
	p.Workers = workers
	return p
}

// sameT1 compares two T1 results up to the worker counts echoed in
// Params — the fields the determinism contract explicitly excludes.
func sameT1(a, b *T1Result) bool {
	ac, bc := *a, *b
	ac.Params.Workers, bc.Params.Workers = 0, 0
	ac.Params.ShotWorkers, bc.Params.ShotWorkers = 0, 0
	return reflect.DeepEqual(ac, bc)
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := NewEnv().RunT1(ctx, core.DefaultConfig(), cancelParams(1))
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, not errors.Is context.Canceled", err)
	}
}

// TestRandomizedMidSweepCancelNeverLeaksPartialResults cancels the same
// sweep at a ladder of randomized interior moments, serial and
// parallel: every preempted run must return (nil, wrapped ctx error);
// a run the cancel misses entirely must be bit-identical to baseline.
func TestRandomizedMidSweepCancelNeverLeaksPartialResults(t *testing.T) {
	cfg := core.DefaultConfig()
	baseline, err := NewEnv().RunT1(context.Background(), cfg, cancelParams(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for trial := 0; trial < 6; trial++ {
			// Deterministically "random" cancel delays spread across the
			// sweep's runtime (sub-ms to tens of ms).
			delay := time.Duration(DeriveSeed2(99, workers, trial)%20000) * time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), delay)
			res, err := NewEnv().RunT1(ctx, cfg, cancelParams(workers))
			cancel()
			if err == nil {
				// The cancel landed after completion; the result must be
				// untouched by the racing deadline.
				if !sameT1(res, baseline) {
					t.Fatalf("workers=%d trial=%d: late-cancel result differs from baseline", workers, trial)
				}
				continue
			}
			if res != nil {
				t.Fatalf("workers=%d trial=%d: preempted run returned a result alongside %v", workers, trial, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d trial=%d: err = %v, not a wrapped ctx error", workers, trial, err)
			}
		}
	}
}

// TestPoolStaysSoundAfterCancel interrupts a sweep on a shared Env,
// then reruns the full experiment on the same Env — its pooled machines
// served the canceled sweep and were returned mid-state — and demands
// bit-identity with a fresh-Env baseline (the ResetState guarantee).
func TestPoolStaysSoundAfterCancel(t *testing.T) {
	cfg := core.DefaultConfig()
	baseline, err := NewEnv().RunT1(context.Background(), cfg, cancelParams(2))
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	if res, err := env.RunT1(ctx, cfg, cancelParams(2)); err == nil {
		// The cancel can lose the race on a fast machine; the run is then
		// complete and must already match baseline.
		if !sameT1(res, baseline) {
			t.Fatal("uncanceled first run differs from baseline")
		}
	}
	res, err := env.RunT1(context.Background(), cfg, cancelParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if !sameT1(res, baseline) {
		t.Fatal("rerun on a pool that served a canceled sweep differs from fresh baseline")
	}
}

// shardedCancelParams is a sweep whose points each exceed ShotShardSize
// (2000 rounds → 8 shards per point), so randomized cancellation lands
// inside the sharded shot loops, not just between sweep points.
func shardedCancelParams(workers, shotWorkers int) SweepParams {
	p := DefaultSweepParams()
	p.Rounds = 2000
	p.InitCycles = 400
	p.DelaysCycles = []int{0, 400, 800}
	p.Workers = workers
	p.ShotWorkers = shotWorkers
	return p
}

// TestShardedMidSweepCancelNeverLeaksPartialResults is the sharded twin
// of the randomized cancel ladder: deadlines land inside the per-shard
// replay loops, siblings abort via the shard context, and every
// preempted run must return (nil, wrapped ctx error) while a run the
// deadline misses must be bit-identical to baseline.
func TestShardedMidSweepCancelNeverLeaksPartialResults(t *testing.T) {
	cfg := core.DefaultConfig()
	baseline, err := NewEnv().RunT1(context.Background(), cfg, shardedCancelParams(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shotWorkers := range []int{2, 0} {
		for trial := 0; trial < 5; trial++ {
			delay := time.Duration(DeriveSeed2(7, shotWorkers, trial)%30000) * time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), delay)
			res, err := NewEnv().RunT1(ctx, cfg, shardedCancelParams(2, shotWorkers))
			cancel()
			if err == nil {
				if !sameT1(res, baseline) {
					t.Fatalf("shotWorkers=%d trial=%d: late-cancel result differs from baseline", shotWorkers, trial)
				}
				continue
			}
			if res != nil {
				t.Fatalf("shotWorkers=%d trial=%d: preempted run returned a result alongside %v", shotWorkers, trial, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("shotWorkers=%d trial=%d: err = %v, not a wrapped ctx error", shotWorkers, trial, err)
			}
		}
	}
}

// TestPoolStaysSoundAfterShardedCancel preempts a sharded sweep on a
// shared Env — its pooled machines were mid-shard when the context died
// — then reruns on the same Env and demands bit-identity with a
// fresh-Env baseline.
func TestPoolStaysSoundAfterShardedCancel(t *testing.T) {
	cfg := core.DefaultConfig()
	baseline, err := NewEnv().RunT1(context.Background(), cfg, shardedCancelParams(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	if res, err := env.RunT1(ctx, cfg, shardedCancelParams(2, 2)); err == nil {
		if !sameT1(res, baseline) {
			t.Fatal("uncanceled first run differs from baseline")
		}
	}
	res, err := env.RunT1(context.Background(), cfg, shardedCancelParams(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !sameT1(res, baseline) {
		t.Fatal("rerun on a pool that served a canceled sharded sweep differs from fresh baseline")
	}
}

// TestConcurrentDuplicateSurvivesCancelOfTwin runs two identical
// experiments concurrently on one Env, cancels one mid-flight, and
// asserts the survivor is bit-identical to baseline — cancellation of a
// neighbor sharing pools and programs must not perturb anyone else.
func TestConcurrentDuplicateSurvivesCancelOfTwin(t *testing.T) {
	cfg := core.DefaultConfig()
	baseline, err := NewEnv().RunT1(context.Background(), cfg, cancelParams(2))
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The canceled twin: any outcome is legal except a wrong result.
		if res, err := env.RunT1(ctx, cfg, cancelParams(2)); err == nil {
			if !sameT1(res, baseline) {
				t.Error("twin escaped cancellation with a perturbed result")
			}
		} else if res != nil {
			t.Error("canceled twin returned a result alongside its error")
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	res, err := env.RunT1(context.Background(), cfg, cancelParams(2))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sameT1(res, baseline) {
		t.Fatal("surviving duplicate differs from baseline")
	}
}
