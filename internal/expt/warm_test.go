package expt

import (
	"bytes"
	"context"
	"encoding/json"
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
// proven the program, so it replays its lead shots and executes no
// instruction — with the merged stats of a run that paid every lead.
func TestWarmShardsSkipLead(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.NumQubits = 5
	prog := asm.MustAssemble(RepCodeShotProgram(DefaultRepCodeParams(), false))
	const shots = 1024
	run := func(mode replay.Mode) (replay.Stats, []uint64) {
		steps := make([]uint64, ShotShardCount(shots))
		st, err := RunShots(context.Background(), cfg, prog, shots, Engine{ShotWorkers: 1, BatchLanes: 1, Replay: mode},
			func(k int, m *core.Machine, _ replay.Stats) error {
				steps[k] = m.Controller.Steps
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return st, steps
	}
	st, steps := run(replay.ModeAuto)
	if st.Lead != 3*len(steps) || st.Replayed != shots-st.Lead {
		t.Fatalf("merged stats %+v, want every shard's lead counted", st)
	}
	skipped := 0
	for _, s := range steps[1:] {
		if s == 0 {
			skipped++
		}
	}
	// A garbage collection may empty the machine pool between shards,
	// so demand the skip on most shards, not all.
	if steps[0] == 0 || skipped < len(steps[1:])/2 {
		t.Fatalf("per-shard instruction counts %v: the first shard must run the pipeline lead and later ones skip it", steps)
	}
}
