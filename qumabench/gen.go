package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/service"
)

// Seed domains: every input of a run derives from the --seed value
// through expt.DeriveSeed2(seed, domain, index), one domain per kind of
// input, so no two inputs share a stream.
const (
	domainRBSequence = 1 // rb_sweep Clifford sequences (one per run)
	domainOpSeed     = 2 // machine seed of in-process experiment k
	domainClient     = 3 // job stream of client c
	domainSample     = 4 // which results the correctness gate re-checks
	domainSanity     = 5 // physics sanity experiments
	domainSetup      = 6 // warm-up work of setup repetition r
)

// nonNeg clears the sign bit: the service rejects negative seeds.
func nonNeg(s int64) int64 { return s & math.MaxInt64 }

// seedFor derives the seed of input index i in a domain.
func seedFor(seed int64, domain, i int) int64 { return expt.DeriveSeed2(seed, domain, i) }

// repCodeSource is the d=3 syndromes-only repetition-code shot program
// (replay-safe) that repcode_lanes runs.
func repCodeSource() string {
	return expt.RepCodeShotProgram(expt.DefaultRepCodeParams(), false)
}

// rbShotSource renders one RB sequence as a per-shot program, in the same
// form expt.RunRB assembles: initialization wait, the pulses, a
// measurement.
func rbShotSource(p expt.RBParams, pulses []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mov r15, %d\nQNopReg r15\n", p.InitCycles)
	for _, g := range pulses {
		fmt.Fprintf(&b, "Pulse {q%d}, %s\nWait 4\n", p.Qubit, g)
	}
	fmt.Fprintf(&b, "MPG {q%d}, %d\nMD {q%d}, r7\nhalt\n", p.Qubit, p.MeasureCycles, p.Qubit)
	return b.String()
}

// unitRBSeed fixes the sequence of the m=128 RB unit program, so the
// layer measurements and the simulated-statistics check run the same
// program under every --seed.
const unitRBSeed = 128

// rbUnitSource is an m=128 RB shot program: the longest sequence rb_sweep
// runs, built from expt.RandomCliffordSequence.
func rbUnitSource() string {
	pulses, _ := expt.RandomCliffordSequence(128, rand.New(rand.NewSource(unitRBSeed)))
	return rbShotSource(expt.DefaultRBParams(), pulses)
}

// trajectoryConfig is a trajectory-backend machine of n qubits.
func trajectoryConfig(n int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Backend = core.BackendTrajectory
	cfg.NumQubits = n
	cfg.Seed = seed
	return cfg
}

// jobTemplate builds the experiments of one service job from its seed.
type jobTemplate func(seed int64) []service.ExperimentRequest

// rbJob is rb_sweep's experiment as a service request.
func rbJob(seqSeed int64) jobTemplate {
	return func(seed int64) []service.ExperimentRequest {
		return []service.ExperimentRequest{{
			Type: "rb", Seed: nonNeg(seed), Backend: string(core.BackendTrajectory),
			Rounds: rbRounds, Trials: rbTrials, SeqSeed: nonNeg(seqSeed) | 1, Workers: 2, ShotWorkers: 1,
		}}
	}
}

// repCodeJob is repcode_lanes' experiment as a service request.
func repCodeJob(seed int64) []service.ExperimentRequest {
	return []service.ExperimentRequest{{
		Type: "asm", Seed: nonNeg(seed), Backend: string(core.BackendTrajectory), NumQubits: 5,
		Rounds: repShots, Program: repCodeSource(), ShotWorkers: 2, BatchLanes: 8,
	}}
}

// Repeats: a share of each client's submissions repeat one of its own
// earlier fresh requests, so the server answers them from its result
// cache. A repeat only targets a request at least repeatLag submissions
// back (long since retired into the cache) and among the last
// repeatWindow fresh ones (far inside the server's cache capacity).
const (
	repeatShare  = 0.25
	repeatLag    = 3
	repeatWindow = 32
)

// jobSpec is one submission of a client's stream.
type jobSpec struct {
	Index    int
	Reqs     []service.ExperimentRequest
	RepeatOf int // index of the repeated fresh submission, or -1
}

// jobGen yields one client's job stream. The stream is a pure function
// of (seed, client, template): the same arguments give identical
// requests in identical order, however fast the server answers.
type jobGen struct {
	tmpl  jobTemplate
	seed  int64
	rng   *rand.Rand
	n     int
	fresh []int
}

func newJobGen(seed int64, client int, tmpl jobTemplate) *jobGen {
	s := seedFor(seed, domainClient, client)
	return &jobGen{tmpl: tmpl, seed: s, rng: rand.New(rand.NewSource(s))}
}

func (g *jobGen) next() jobSpec {
	i := g.n
	g.n++
	if g.rng.Float64() < repeatShare {
		var cands []int
		lo := max(0, len(g.fresh)-repeatWindow)
		for _, f := range g.fresh[lo:] {
			if f <= i-repeatLag {
				cands = append(cands, f)
			}
		}
		if len(cands) > 0 {
			f := cands[g.rng.Intn(len(cands))]
			return jobSpec{Index: i, Reqs: g.tmpl(expt.DeriveSeed(g.seed, f)), RepeatOf: f}
		}
	}
	g.fresh = append(g.fresh, i)
	return jobSpec{Index: i, Reqs: g.tmpl(expt.DeriveSeed(g.seed, i)), RepeatOf: -1}
}
