package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/replay"
)

// TestProgramResultPureUnderWarmMemo pins that results stay a pure
// function of the request when pooled machines have already proven the
// program and replay their lead shots from the memo: the same
// ProgramParams run on a fresh Env and, repeatedly and concurrently, on
// a warmed one must marshal to byte-identical ProgramResult JSON,
// replayed count included. The concurrent requests share memo entries
// across shot workers (CI runs this under -race).
func TestProgramResultPureUnderWarmMemo(t *testing.T) {
	src := RepCodeShotProgram(DefaultRepCodeParams(), false)
	for _, b := range []core.Backend{core.BackendTrajectory, core.BackendDensity} {
		t.Run(string(b), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Backend = b
			cfg.NumQubits = 5
			cfg.Seed = 31
			shots := 1100 // five shards: four full ones and a short one
			if b == core.BackendDensity {
				shots = 300 // two shards; the 5-qubit density register is slow
			}
			pp := ProgramParams{Source: src, Shots: shots, ShotWorkers: 2}
			encode := func(env *Env, pp ProgramParams) []byte {
				res, err := env.RunProgram(context.Background(), cfg, pp)
				if err != nil {
					t.Error(err)
					return nil
				}
				out, err := json.Marshal(res)
				if err != nil {
					t.Error(err)
				}
				return out
			}
			want := encode(NewEnv(), pp)
			var res ProgramResult
			if err := json.Unmarshal(want, &res); err != nil || res.Replayed == 0 {
				t.Fatalf("reference replayed no shot: %s (%v)", want, err)
			}

			env := NewEnv()
			for round := range 3 {
				if got := encode(env, pp); !bytes.Equal(got, want) {
					t.Fatalf("round %d on a warm Env:\n%s\nfresh Env:\n%s", round, got, want)
				}
			}
			var wg sync.WaitGroup
			got := make([][]byte, 4)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = encode(env, pp)
				}()
			}
			wg.Wait()
			for i := range got {
				if !bytes.Equal(got[i], want) {
					t.Fatalf("concurrent request %d on a warm Env:\n%s\nfresh Env:\n%s", i, got[i], want)
				}
			}
		})
	}
}

// TestWarmShardsSkipLead checks that the shot-shard runner really
// reuses proven programs: with scalar shards run one after another,
// every shard after the first takes a pooled machine that has already
// proven the program, and with the shards as lanes of one lockstep group
// on fresh machines, every lane after the first takes the entry the
// first lane proved. Either way those shards replay their lead shots
// and execute no instruction — with the merged stats of a run that paid
// every lead.
func TestWarmShardsSkipLead(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.NumQubits = 5
	prog := asm.MustAssemble(RepCodeShotProgram(DefaultRepCodeParams(), false))
	const shots = 1024
	for _, lanes := range []int{1, 4} {
		steps := make([]uint64, ShotShardCount(shots))
		st, err := RunShots(context.Background(), cfg, prog, shots, Engine{ShotWorkers: 1, BatchLanes: lanes, Replay: replay.ModeAuto},
			func(k int, m *core.Machine, _ replay.Stats) error {
				steps[k] = m.Controller.Steps
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if st.Lead != 3*len(steps) || st.Replayed != shots-st.Lead {
			t.Fatalf("lanes %d: merged stats %+v, want every shard's lead counted", lanes, st)
		}
		skipped := 0
		for _, s := range steps[1:] {
			if s == 0 {
				skipped++
			}
		}
		// One shot worker runs scalar shards back to back, and the pool
		// hands each the machine the previous one returned; four lanes
		// are one group of four fresh, lead-equivalent machines.
		if steps[0] == 0 || skipped != len(steps[1:]) {
			t.Fatalf("lanes %d: per-shard instruction counts %v: the first shard must run the pipeline lead and later ones skip it", lanes, steps)
		}
	}
}

// TestPoolKeepsMachinesAcrossGC pins the machine pool's lifetime: the
// machines an experiment returned survive garbage collections, and a
// second RunRB on the same Env finds every program proven, so no lane
// of it runs a single instruction (every lead replays from the memo)
// and no machine is built. In the first, cold RunRB only one lane of
// each point's two-lane group runs the pipeline lead: its sibling
// replays its lead from the entry that lane proved.
func TestPoolKeepsMachinesAcrossGC(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	p := DefaultRBParams()
	p.Lengths = []int{1, 4, 16}
	p.Trials = 2
	p.Rounds = 300 // two shards per point
	p.Workers, p.ShotWorkers = 1, 1
	env := NewEnv()
	mp := env.poolFor(cfg)
	// pipelined counts the pooled machines whose last point ran a
	// pipeline lead (the caller holds mp.mu).
	pipelined := func() int {
		n := 0
		for _, m := range mp.free {
			if m.Controller.Steps != 0 {
				n++
			}
		}
		return n
	}
	// With one worker a point's two machines are back in the pool, and
	// still hold their instruction counts, at the next point's first get.
	checkCold := func(when string) {
		mp.mu.Lock()
		defer mp.mu.Unlock()
		if len(mp.free) == 2 && pipelined() != 1 {
			t.Errorf("%s: %d of the last point's two lanes ran the pipeline lead, want one", when, pipelined())
		}
	}
	env.SetFaults(&FaultHooks{PoolGet: func() error {
		checkCold("before a get")
		return nil
	}})
	run := func() []byte {
		res, err := env.RunRB(context.Background(), cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	checkCold("after the cold run")
	if len(env.pools) != 1 {
		t.Fatalf("%d pools, want the experiment's one", len(env.pools))
	}
	pooled := slices.Clone(mp.free)
	if len(pooled) == 0 {
		t.Fatal("the experiment returned no machine to the pool")
	}
	runtime.GC()
	runtime.GC()
	if !slices.Equal(mp.free, pooled) {
		t.Fatalf("pool holds %d machines after two collections, want the same %d", len(mp.free), len(pooled))
	}

	// With one worker every machine a point returns is still in the pool
	// at the next get, so checking the free list before each get and at
	// the end sees every lane's instruction count (cleared first, so a
	// nonzero count is the second run's).
	for _, m := range pooled {
		m.Controller.Steps = 0
	}
	checkSteps := func(when string) {
		mp.mu.Lock()
		defer mp.mu.Unlock()
		for i, m := range mp.free {
			if m.Controller.Steps != 0 {
				t.Errorf("%s: pooled machine %d ran %d instructions", when, i, m.Controller.Steps)
			}
		}
	}
	env.SetFaults(&FaultHooks{PoolGet: func() error {
		checkSteps("before a get")
		return nil
	}})
	if second := run(); !bytes.Equal(second, first) {
		t.Fatalf("second run:\n%s\nfirst run:\n%s", second, first)
	}
	checkSteps("after the run")
	if !slices.Equal(mp.free, pooled) {
		t.Fatalf("second run left %d pooled machines, want the same %d", len(mp.free), len(pooled))
	}
}
