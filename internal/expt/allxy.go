package expt

import (
	"context"
	"fmt"
	"strings"

	"quma/internal/core"
	"quma/internal/fit"
	"quma/internal/readout"
	"quma/internal/replay"
)

// AllXYPair is one of the 21 gate pairs of the AllXY sequence.
type AllXYPair struct {
	Label  string // Fig. 9 label: upper case = π, lower case = π/2
	First  string // Table 1 pulse name
	Second string
	Ideal  float64 // ideal |1⟩ fidelity after the pair
}

// AllXYPairs returns the 21 gate pairs in the paper's Figure 9 order:
// the first 5 return the qubit to |0⟩, the next 12 leave it on the
// equator (fidelity ½), and the final 4 drive it to |1⟩.
func AllXYPairs() []AllXYPair {
	return []AllXYPair{
		{"II", "I", "I", 0},
		{"XX", "X180", "X180", 0},
		{"YY", "Y180", "Y180", 0},
		{"XY", "X180", "Y180", 0},
		{"YX", "Y180", "X180", 0},
		{"xI", "X90", "I", 0.5},
		{"yI", "Y90", "I", 0.5},
		{"xy", "X90", "Y90", 0.5},
		{"yx", "Y90", "X90", 0.5},
		{"xY", "X90", "Y180", 0.5},
		{"yX", "Y90", "X180", 0.5},
		{"Xy", "X180", "Y90", 0.5},
		{"Yx", "Y180", "X90", 0.5},
		{"xX", "X90", "X180", 0.5},
		{"Xx", "X180", "X90", 0.5},
		{"yY", "Y90", "Y180", 0.5},
		{"Yy", "Y180", "Y90", 0.5},
		{"XI", "X180", "I", 1},
		{"YI", "Y180", "I", 1},
		{"xx", "X90", "X90", 1},
		{"yy", "Y90", "Y90", 1},
	}
}

// AllXYParams configures an AllXY run.
type AllXYParams struct {
	// Qubit is the driven qubit index (the paper uses qubit 2 of its
	// 10-qubit chip).
	Qubit int
	// Rounds is N, the number of averaging rounds (paper: 25600).
	Rounds int
	// InitCycles is the initialization wait per shot (paper: 40000 cycles
	// = 200 µs ≈ 6–7 T1).
	InitCycles int
	// Doubled repeats each combination twice back to back, as in the
	// paper's run ("each of the 21 combinations is measured twice to make
	// a direct visual distinction between systematic errors and low
	// signal-to-noise"), giving K = 42 points.
	Doubled bool
	// MeasureCycles is the MPG duration (paper: 300).
	MeasureCycles int
	// Workers bounds the sweep parallelism across the 21 pairs (0 = one
	// worker per CPU). Results are identical for any value; see sweep.go.
	Workers int
	// ShotWorkers bounds the shot-shard parallelism inside each pair when
	// Rounds exceeds ShotShardSize (0 = one worker per CPU). Results are
	// identical for any value; see shotshard.go.
	ShotWorkers int
	// BatchLanes caps how many shot shards run in lockstep on the
	// batched trajectory executor (one lane per shard — same seeds, same
	// streams): 0 = auto (ShardLaneGroups), 1 = scalar shards. Results
	// are bit-identical for any value; see shotshard.go.
	BatchLanes int
	// Replay selects the shot-replay engine mode: replay.ModeOff (full
	// simulation of every shot) or ModeCompiled (default auto = compiled;
	// the deprecated ModeInterp is an alias of it). Results are
	// bit-identical for any value — see internal/replay.
	Replay replay.Mode
}

// DefaultAllXYParams returns the paper's settings with a reduced round
// count suitable for tests (the cmd tools crank Rounds back up).
func DefaultAllXYParams() AllXYParams {
	return AllXYParams{Qubit: 0, Rounds: 100, InitCycles: 40000, Doubled: true, MeasureCycles: 300}
}

// points returns the measurement-index count per round.
func (p AllXYParams) points() int {
	if p.Doubled {
		return 42
	}
	return 21
}

// emitAllXYPair writes one round's worth of a single gate pair (twice
// when Doubled): the shot body shared by the monolithic AllXYProgram and
// the per-pair sweep programs, so the two paths cannot drift apart.
func emitAllXYPair(b *strings.Builder, p AllXYParams, pair AllXYPair) {
	reps := 1
	if p.Doubled {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		fmt.Fprintf(b, "# %s\n", pair.Label)
		fmt.Fprintf(b, "QNopReg r15\n")
		fmt.Fprintf(b, "Pulse {q%d}, %s\n", p.Qubit, pair.First)
		fmt.Fprintf(b, "Wait 4\n")
		fmt.Fprintf(b, "Pulse {q%d}, %s\n", p.Qubit, pair.Second)
		fmt.Fprintf(b, "Wait 4\n")
		fmt.Fprintf(b, "MPG {q%d}, %d\n", p.Qubit, p.MeasureCycles)
		fmt.Fprintf(b, "MD {q%d}, r7\n", p.Qubit)
	}
}

// allXYHeader/allXYFooter wrap pair bodies in the Algorithm 3 averaging
// loop.
func allXYHeader(b *strings.Builder, p AllXYParams) {
	fmt.Fprintf(b, "mov r15, %d  # init wait\n", p.InitCycles)
	fmt.Fprintf(b, "mov r1, 0     # loop counter\n")
	fmt.Fprintf(b, "mov r2, %d  # number of averages\n", p.Rounds)
	fmt.Fprintf(b, "\nOuter_Loop:\n")
}

func allXYFooter(b *strings.Builder) {
	fmt.Fprintf(b, "addi r1, r1, 1\n")
	fmt.Fprintf(b, "bne r1, r2, Outer_Loop\n")
	fmt.Fprintf(b, "halt\n")
}

// AllXYProgram emits the combined classical + QuMIS assembly of the
// paper's Algorithm 3: the inner 21-combination loop unrolled, the outer
// averaging loop implemented with auxiliary classical instructions.
func AllXYProgram(p AllXYParams) string {
	var b strings.Builder
	allXYHeader(&b, p)
	for _, pair := range AllXYPairs() {
		emitAllXYPair(&b, p, pair)
	}
	allXYFooter(&b)
	return b.String()
}

// allXYPairShotProgram emits the per-shot program for one gate pair: one
// averaging round (the pair twice when Doubled); the round loop lives in
// the replay engine.
func allXYPairShotProgram(p AllXYParams, pair AllXYPair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mov r15, %d  # init wait\n", p.InitCycles)
	emitAllXYPair(&b, p, pair)
	fmt.Fprintf(&b, "halt\n")
	return b.String()
}

// AllXYResult holds the analyzed outcome of an AllXY run.
type AllXYResult struct {
	Params AllXYParams
	// Raw are the averaged integration results S̄_i (K points).
	Raw []float64
	// Fidelities are the readout-rescaled |1⟩ fidelities (K points).
	Fidelities []float64
	// Ideal is the staircase the fidelities are compared against.
	Ideal []float64
	// Deviation is the RMS deviation from the ideal staircase — the
	// number quoted in the paper's Figure 9 (0.012 on hardware).
	Deviation float64
	// PulsesPlayed and MemoryBytes record the scalability accounting.
	PulsesPlayed uint64
	MemoryBytes  int
}

// RunAllXY executes the AllXY experiment on the parallel sweep engine:
// each of the 21 gate pairs runs on its own pooled machine seeded with
// DeriveSeed(cfg.Seed, pair), with the Rounds averaging loop hoisted into
// the shot-replay engine. cfg.CollectK and cfg.NumQubits are set as
// needed.
func (e *Env) RunAllXY(ctx context.Context, cfg core.Config, p AllXYParams) (*AllXYResult, error) {
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("expt: Rounds must be positive")
	}
	pairs := AllXYPairs()
	reps := 1
	if p.Doubled {
		reps = 2
	}
	cfg.CollectK = reps
	if cfg.NumQubits <= p.Qubit {
		cfg.NumQubits = p.Qubit + 1
	}
	raw := make([]float64, len(pairs)*reps)
	pulses := make([]uint64, len(pairs))
	memBytes := make([]int, len(pairs))
	pool := e.poolFor(cfg)
	plan := ShotShardPlan(p.Rounds)
	err := runPool(ctx, len(pairs), p.Workers, func(i int) error {
		prog, err := e.progs.get(allXYPairShotProgram(p, pairs[i]))
		if err != nil {
			return err
		}
		// Per-shard collector sums and counts, merged exactly in shard
		// order after the job (one shard reproduces Averages() bit for
		// bit). Pulse counts sum across shards; the LUT footprint is a
		// per-config constant, so shard 0's value stands for the point.
		nshards := shardCount(plan)
		sums := make([][]float64, nshards)
		counts := make([][]int, nshards)
		shardPulses := make([]uint64, nshards)
		_, err = runShotJobSharded(ctx, pool, DeriveSeed(cfg.Seed, i), prog, p.Rounds, plan, p.ShotWorkers, p.BatchLanes, p.Replay, nil, nil,
			func(k int, m *core.Machine, st replay.Stats) error {
				if got := m.Collector.Rounds(); got != st.Shots {
					return fmt.Errorf("expt: pair %s shard %d collected %d rounds, want %d", pairs[i].Label, k, got, st.Shots)
				}
				sums[k] = m.Collector.Sums()
				counts[k] = m.Collector.Counts()
				shardPulses[k] = m.PulsesPlayed
				if k == 0 {
					memBytes[i] = m.MemoryFootprintBytes()
				}
				return nil
			})
		if err != nil {
			return err
		}
		for _, n := range shardPulses {
			pulses[i] += n
		}
		for r := 0; r < reps; r++ {
			var sum float64
			var n int
			for k := 0; k < nshards; k++ {
				sum += sums[k][r]
				n += counts[k][r]
			}
			if n > 0 {
				raw[i*reps+r] = sum / float64(n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var totalPulses uint64
	for _, n := range pulses {
		totalPulses += n
	}
	return analyzeAllXY(p, raw, totalPulses, memBytes[0])
}

// analyzeAllXY turns the per-point averaged integration results into the
// calibrated staircase. memBytes is the LUT footprint of one machine (all
// sweep machines are identically calibrated).
func analyzeAllXY(p AllXYParams, raw []float64, totalPulses uint64, memBytes int) (*AllXYResult, error) {
	reps := 1
	if p.Doubled {
		reps = 2
	}
	// Calibration points, as in the paper's Section 8: the II
	// combination gives S̄_|0⟩; the XI and YI combinations give S̄_|1⟩.
	cal0 := 0.0
	for r := 0; r < reps; r++ {
		cal0 += raw[0*reps+r]
	}
	cal0 /= float64(reps)
	cal1 := 0.0
	for _, combo := range []int{17, 18} {
		for r := 0; r < reps; r++ {
			cal1 += raw[combo*reps+r]
		}
	}
	cal1 /= float64(2 * reps)
	if cal1 == cal0 {
		return nil, fmt.Errorf("expt: degenerate calibration points (S0 = S1 = %v)", cal0)
	}
	fid := readout.RescaleToFidelity(raw, cal0, cal1)
	ideal := make([]float64, 0, len(fid))
	for _, pair := range AllXYPairs() {
		for r := 0; r < reps; r++ {
			ideal = append(ideal, pair.Ideal)
		}
	}
	return &AllXYResult{
		Params:       p,
		Raw:          raw,
		Fidelities:   fid,
		Ideal:        ideal,
		Deviation:    fit.RMSDeviation(fid, ideal),
		PulsesPlayed: totalPulses,
		MemoryBytes:  memBytes,
	}, nil
}

// Staircase renders the result as an ASCII table: one row per point with
// label, ideal, and measured fidelity.
func (r *AllXYResult) Staircase() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-9s %s\n", "idx", "pair", "ideal", "measured F|1>")
	reps := 1
	if r.Params.Doubled {
		reps = 2
	}
	pairs := AllXYPairs()
	for i, f := range r.Fidelities {
		pair := pairs[i/reps]
		fmt.Fprintf(&b, "%-4d %-6s %-9.2f %.4f\n", i, pair.Label, pair.Ideal, f)
	}
	fmt.Fprintf(&b, "Deviation: %.4f\n", r.Deviation)
	return b.String()
}
