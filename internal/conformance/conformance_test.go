package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// committedSeeds is the pinned generator seed list: every program the
// suite has ever run is reproducible from (seed, kind) alone. When a
// differential failure is found — here or by ad-hoc exploration — add
// its seed so the regression stays covered.
var committedSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// allModes is the full replay axis of the execution matrix: the
// full-pipeline reference and compiled replay, selected explicitly and
// by auto. (The deprecated "interp" alias runs compiled replay too.)
var allModes = []replay.Mode{replay.ModeOff, replay.ModeAuto, replay.ModeCompiled}

var backends = []core.Backend{core.BackendDensity, core.BackendTrajectory}

const confShots = 120

// confConfig builds the machine config for a population: deterministic
// programs run on noiseless qubits with noiseless readout (outcomes are
// certain), the stochastic populations on the default noisy machine.
func confConfig(kind Kind, backend core.Backend, nQubits int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Backend = backend
	cfg.NumQubits = nQubits
	cfg.Seed = seed
	if kind == Deterministic {
		cfg.Qubit = make([]qphys.QubitParams, nQubits) // zero value = noiseless
		cfg.Readout.NoiseSigma = 0
	}
	return cfg
}

// runMatrix executes one program across every mode on one backend,
// asserting the replay contract: all modes bit-identical, and the
// safety detector's verdict matches the population.
func runMatrix(t *testing.T, env *expt.Env, cfg core.Config, src string, kind Kind) *expt.ProgramResult {
	t.Helper()
	var ref *expt.ProgramResult
	for _, mode := range allModes {
		res, err := env.RunProgram(context.Background(), cfg, expt.ProgramParams{Source: src, Shots: confShots, Replay: mode})
		if err != nil {
			t.Fatalf("mode %s: %v\nprogram:\n%s", mode, err, src)
		}
		if mode != replay.ModeOff {
			switch kind {
			case Safe, Deterministic:
				if !res.Safe {
					t.Errorf("mode %s: %s program detected unsafe\nprogram:\n%s", mode, kind, src)
				}
			case Unsafe:
				if res.Safe {
					t.Errorf("mode %s: %s program detected safe\nprogram:\n%s", mode, kind, src)
				}
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.StreamHash != ref.StreamHash {
			t.Fatalf("mode %s: measurement stream %x, mode %s stream %x\nprogram:\n%s",
				mode, res.StreamHash, allModes[0], ref.StreamHash, src)
		}
		for i := range ref.Ones {
			if res.Ones[i] != ref.Ones[i] {
				t.Fatalf("mode %s: ones[%d] = %d, want %d\nprogram:\n%s", mode, i, res.Ones[i], ref.Ones[i], src)
			}
		}
	}
	return ref
}

// TestDifferentialConformance is the randomized differential suite: for
// every committed seed and population, the program runs across all 8
// backend × replay-mode combinations. Within a backend, all four modes
// must be bit-identical (same measurement stream hash, same counts) —
// for the trajectory backend this pins the Monte-Carlo trajectory
// itself, draw for draw. Across backends, deterministic programs must
// agree exactly; stochastic ones within a 5σ binomial envelope (the
// density backend projects from exact mixed-state probabilities, the
// trajectory backend from sampled pure states, so their PRNG streams
// diverge and only the physics — the means — must agree).
func TestDifferentialConformance(t *testing.T) {
	env := expt.NewEnv()
	for _, seed := range committedSeeds {
		for _, kind := range []Kind{Safe, Unsafe, Deterministic} {
			t.Run(fmt.Sprintf("seed-%d/%s", seed, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed ^ int64(kind)<<32))
				nQubits := 2 + rng.Intn(2)
				src := Generate(rng, kind, nQubits, 8+rng.Intn(8))
				machineSeed := seed*1000003 + int64(kind)

				results := make(map[core.Backend]*expt.ProgramResult)
				for _, b := range backends {
					results[b] = runMatrix(t, env, confConfig(kind, b, nQubits, machineSeed), src, kind)
				}
				den, trj := results[core.BackendDensity], results[core.BackendTrajectory]
				if len(den.Ones) != len(trj.Ones) || den.MDPerShot != trj.MDPerShot {
					t.Fatalf("backends disagree on measurement count: density %d, trajectory %d", den.MDPerShot, trj.MDPerShot)
				}
				if kind == Deterministic {
					// Outcomes are certain: the backends must agree shot
					// for shot, and every column must be all-0 or all-1.
					if den.StreamHash != trj.StreamHash {
						t.Fatalf("deterministic program: density stream %x != trajectory %x\nprogram:\n%s",
							den.StreamHash, trj.StreamHash, src)
					}
					for i, n := range den.Ones {
						if n != 0 && n != confShots {
							t.Errorf("deterministic ones[%d] = %d/%d, want 0 or all\nprogram:\n%s", i, n, confShots, src)
						}
					}
					return
				}
				// Stochastic cross-backend agreement: per measurement
				// position, the |1⟩ fractions differ by at most 5σ of
				// the pooled binomial spread (plus a floor for the
				// p→0/1 corners). Seeds are pinned, so this never
				// flakes: it either always passes or caught something.
				for i := range den.Ones {
					pd := float64(den.Ones[i]) / confShots
					pt := float64(trj.Ones[i]) / confShots
					pool := (pd + pt) / 2
					sigma := math.Sqrt(2 * pool * (1 - pool) / confShots)
					if tol := 5*sigma + 0.02; math.Abs(pd-pt) > tol {
						t.Errorf("ones[%d]: density %.3f vs trajectory %.3f exceeds %.3f\nprogram:\n%s",
							i, pd, pt, tol, src)
					}
				}
			})
		}
	}
}
