package expt

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"quma/internal/core"
	"quma/internal/fit"
	"quma/internal/prng"
	"quma/internal/replay"
)

// RBParams configures single-qubit randomized benchmarking.
type RBParams struct {
	Qubit int
	// Lengths are the Clifford sequence lengths m to sample.
	Lengths []int
	// Trials is the number of random sequences per length.
	Trials int
	// Rounds is the averaging count per sequence.
	Rounds int
	// InitCycles is the per-shot initialization wait.
	InitCycles int
	// MeasureCycles is the MPG duration.
	MeasureCycles int
	// Seed drives sequence sampling (independent of the machine's own
	// measurement PRNG).
	Seed int64
	Engine
}

// DefaultRBParams returns a short benchmark suitable for tests.
func DefaultRBParams() RBParams {
	return RBParams{
		Qubit:         0,
		Lengths:       []int{1, 4, 8, 16, 32, 64, 128},
		Trials:        4,
		Rounds:        60,
		InitCycles:    40000,
		MeasureCycles: 300,
		Seed:          7,
	}
}

// RBResult holds the benchmark outcome.
type RBResult struct {
	Params RBParams
	// Survival[i] is the mean ground-state return probability at
	// Lengths[i], averaged over trials.
	Survival []float64
	// PerTrial[i][t] is the survival of each random sequence.
	PerTrial [][]float64
	// Fit is the F(m) = A·p^m + B decay.
	Fit fit.RBDecay
	// AvgPulsesPerClifford reports the decomposition cost.
	AvgPulsesPerClifford float64
}

// RBShotProgram emits the per-shot program for one Clifford sequence
// (with recovery, as RandomCliffordSequence returns it): init, sequence,
// measure. The shot loop and the ones-count both live in the engine now
// — the program never consumes the measurement result, which is what
// makes RB replay-safe.
func RBShotProgram(p RBParams, pulses []string) string {
	q := strconv.Itoa(p.Qubit)
	initCycles := strconv.Itoa(p.InitCycles)
	measureCycles := strconv.Itoa(p.MeasureCycles)
	size := len("mov r15, \nQNopReg r15\n") + len(initCycles) +
		len("MPG {q}, \nMD {q}, r7\nhalt\n") + 2*len(q) + len(measureCycles)
	for _, g := range pulses {
		size += len("Pulse {q}, \nWait 4\n") + len(q) + len(g)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("mov r15, ")
	b.WriteString(initCycles)
	b.WriteString("\nQNopReg r15\n")
	for _, g := range pulses {
		b.WriteString("Pulse {q")
		b.WriteString(q)
		b.WriteString("}, ")
		b.WriteString(g)
		b.WriteString("\nWait 4\n")
	}
	b.WriteString("MPG {q")
	b.WriteString(q)
	b.WriteString("}, ")
	b.WriteString(measureCycles)
	b.WriteString("\nMD {q")
	b.WriteString(q)
	b.WriteString("}, r7\nhalt\n")
	return b.String()
}

// rbSeqRngs holds the sequence generators RunRB reseeds per point: a
// rand.Rand over a prng.Source, math/rand's generator ported verbatim,
// so a reseeded one draws exactly the sequence a fresh
// rand.New(rand.NewSource(seed)) would, without allocating and
// discarding a generator per point.
var rbSeqRngs = sync.Pool{New: func() any { return rand.New(new(prng.Source)) }}

// RunRB executes randomized benchmarking on the parallel sweep engine —
// every (length, trial) pair runs its own random sequence on its own
// pooled machine, with the sequence drawn from DeriveSeed(p.Seed, pair),
// the machine seeded with DeriveSeed(cfg.Seed, pair), and the Rounds
// shot loop in the replay engine (RB sequences are feedback-free, so
// shots past the detection prefix replay the recorded schedule) — and
// fits the exponential decay of the ground-state survival probability.
func (e *Env) RunRB(ctx context.Context, cfg core.Config, p RBParams) (*RBResult, error) {
	if len(p.Lengths) < 3 || p.Trials < 1 || p.Rounds < 1 {
		return nil, fmt.Errorf("expt: RB needs ≥3 lengths and ≥1 trial/round")
	}
	if cfg.NumQubits <= p.Qubit {
		cfg.NumQubits = p.Qubit + 1
	}
	// Build the shared Clifford table before the fan-out so workers only
	// read it.
	res := &RBResult{Params: p, AvgPulsesPerClifford: AvgPulsesPerClifford()}
	njobs := len(p.Lengths) * p.Trials
	surv := make([]float64, njobs)
	pool := e.poolFor(cfg)
	err := runPool(ctx, njobs, p.Workers, func(i int) error {
		length := p.Lengths[i/p.Trials]
		seqRng := rbSeqRngs.Get().(*rand.Rand)
		seqRng.Seed(DeriveSeed(p.Seed, i))
		pulses, _ := RandomCliffordSequence(length, seqRng)
		rbSeqRngs.Put(seqRng)
		prog, err := e.progs.get(RBShotProgram(p, pulses))
		if err != nil {
			return err
		}
		ones := make([]int, ShotShardCount(p.Rounds))
		_, err = runShotJobSharded(ctx, pool, DeriveSeed(cfg.Seed, i), prog, p.Rounds, ShotShardPlan(p.Rounds), p.Engine, nil,
			func(k, _ int, md []replay.MD) {
				if len(md) > 0 && md[0].Result == 1 {
					ones[k]++
				}
			}, nil)
		if err != nil {
			return fmt.Errorf("expt: RB m=%d trial %d: %w", length, i%p.Trials, err)
		}
		surv[i] = 1 - float64(sum(ones))/float64(p.Rounds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ms, fs []float64
	for li, length := range p.Lengths {
		trials := surv[li*p.Trials : (li+1)*p.Trials]
		sum := 0.0
		for _, s := range trials {
			sum += s
		}
		res.PerTrial = append(res.PerTrial, trials)
		mean := sum / float64(p.Trials)
		res.Survival = append(res.Survival, mean)
		ms = append(ms, float64(length))
		fs = append(fs, mean)
	}
	f, err := fit.FitRBDecay(ms, fs)
	if err != nil {
		return nil, fmt.Errorf("expt: RB fit: %w", err)
	}
	res.Fit = f
	return res, nil
}

// Table renders length/survival rows plus the fitted error per Clifford.
func (r *RBResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %s\n", "m", "survival", "fit F(m)")
	for i, m := range r.Params.Lengths {
		fmt.Fprintf(&b, "%-6d %-10.4f %.4f\n", m, r.Survival[i], r.Fit.Eval(float64(m)))
	}
	fmt.Fprintf(&b, "p = %.5f, error per Clifford = %.5f\n", r.Fit.P, r.Fit.ErrorPerClifford())
	return b.String()
}
