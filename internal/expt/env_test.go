package expt

import (
	"context"
	"sync"
	"testing"

	"quma/internal/core"
)

// The Env contract: sharing one environment across many calls — the
// batch service's whole premise — never changes a single bit of any
// result. A request's outcome depends only on (config, params), not on
// which Env ran it, what ran on that Env before, or what runs on it
// concurrently.

const envTestProgram = `
mov r15, 40000
QNopReg r15
Pulse {q0}, X90
Wait 4
MPG {q0}, 300
MD {q0}, r7
halt
`

func TestSharedEnvMatchesFreshEnv(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.Seed = 11

	sp := DefaultSweepParams()
	sp.Rounds = 40
	pp := ProgramParams{Source: envTestProgram, Shots: 60}

	// Reference results from fresh per-call environments.
	wantT1, err := NewEnv().RunT1(context.Background(), cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	wantProg, err := NewEnv().RunProgram(context.Background(), cfg, pp)
	if err != nil {
		t.Fatal(err)
	}

	// One shared Env, calls interleaved in a different order, twice over
	// — pooled machines now carry state from unrelated prior requests.
	env := NewEnv()
	for round := 0; round < 2; round++ {
		gotProg, err := env.RunProgram(context.Background(), cfg, pp)
		if err != nil {
			t.Fatal(err)
		}
		if gotProg.StreamHash != wantProg.StreamHash {
			t.Fatalf("round %d: shared-env program stream %x, fresh %x", round, gotProg.StreamHash, wantProg.StreamHash)
		}
		gotT1, err := env.RunT1(context.Background(), cfg, sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantT1.Excited {
			if gotT1.Excited[i] != wantT1.Excited[i] {
				t.Fatalf("round %d point %d: shared-env %v, fresh %v", round, i, gotT1.Excited[i], wantT1.Excited[i])
			}
		}
		// A Rabi call interleaves custom LUT uploads into the same pool;
		// later T1/program calls (next round) must be unaffected.
		rp := DefaultRabiParams()
		rp.Rounds = 30
		if _, err := env.RunRabi(context.Background(), cfg, rp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSharedEnvConcurrentRequestsAreBitIdentical(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.Seed = 23
	pp := ProgramParams{Source: envTestProgram, Shots: 50}
	want, err := NewEnv().RunProgram(context.Background(), cfg, pp)
	if err != nil {
		t.Fatal(err)
	}

	env := NewEnv()
	const n = 8
	got := make([]*ProgramResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = env.RunProgram(context.Background(), cfg, pp)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].StreamHash != want.StreamHash {
			t.Fatalf("concurrent request %d: stream %x, fresh-env %x", i, got[i].StreamHash, want.StreamHash)
		}
		for j := range want.Ones {
			if got[i].Ones[j] != want.Ones[j] {
				t.Fatalf("concurrent request %d: ones[%d] = %d, want %d", i, j, got[i].Ones[j], want.Ones[j])
			}
		}
	}
}
