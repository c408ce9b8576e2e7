package conformance

// Batched-executor conformance: the differential layer for the
// lockstep shot-batched SoA trajectory executor. Lane grouping is a
// pure scheduling decision — one lane is one shot shard, each lane
// keeps its own DeriveSeed(pointSeed, k) PRNG — so for every corpus
// program the measurement stream must be byte-identical across every
// lane width, every ShotWorkers value, and every replay mode. ModeOff
// cannot batch (it demotes lanes to scalar shards), which is itself
// part of the contract: asking for lanes there must not change a single
// byte either.
//
// CI runs this file under -race in the chaos smoke step.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"quma/internal/core"
	"quma/internal/expt"
)

// TestBatchedLaneConformance runs generated programs from both
// populations on the trajectory backend at a sharded shot count
// (plan [256 256 40]: one multi-lane group plus a remainder group)
// and asserts the stream hash never moves off the scalar-sharded
// reference for any mode × lanes × ShotWorkers combination.
func TestBatchedLaneConformance(t *testing.T) {
	env := expt.NewEnv()
	for _, seed := range committedSeeds[:4] {
		for _, kind := range []Kind{Safe, Deterministic} {
			t.Run(fmt.Sprintf("seed-%d/%s", seed, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed ^ int64(kind)<<32))
				nQubits := 2 + rng.Intn(2)
				src := Generate(rng, kind, nQubits, 8+rng.Intn(8))
				cfg := confConfig(kind, core.BackendTrajectory, nQubits, seed*1000003+int64(kind))

				ref, err := env.RunProgram(context.Background(), cfg,
					expt.ProgramParams{Source: src, Shots: shardShots, Replay: allModes[0]})
				if err != nil {
					t.Fatalf("scalar reference: %v\nprogram:\n%s", err, src)
				}
				for _, mode := range allModes {
					for _, lanes := range []int{1, 2, 8} {
						for _, sw := range []int{1, 2, runtime.NumCPU()} {
							res, err := env.RunProgram(context.Background(), cfg,
								expt.ProgramParams{Source: src, Shots: shardShots,
									Replay: mode, ShotWorkers: sw, BatchLanes: lanes})
							if err != nil {
								t.Fatalf("mode %s lanes %d ShotWorkers %d: %v\nprogram:\n%s",
									mode, lanes, sw, err, src)
							}
							if res.StreamHash != ref.StreamHash {
								t.Fatalf("mode %s lanes %d ShotWorkers %d: stream %x, want %x\nprogram:\n%s",
									mode, lanes, sw, res.StreamHash, ref.StreamHash, src)
							}
						}
					}
				}
			})
		}
	}
}
