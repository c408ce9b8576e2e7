package expt

import (
	"context"
	"fmt"
	"math"
	"strings"

	"quma/internal/core"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// Repetition-code experiment: the distance-d bit-flip code whose
// hardware demonstrations ([22, 23] in the paper) motivate a control
// microarchitecture with fast measurement discrimination and feedback.
// One round encodes |1⟩_L = |1…1⟩ across data qubits q0..q(d−1), waits a
// memory time τ (T1 decay supplies physical bit flips), extracts the d−1
// adjacent-pair parity syndromes into ancillas through microcoded CNOTs,
// branches on the measured syndromes to apply the correction pulse, and
// finally reads out the data qubits with a classical majority vote —
// every step running through the full QuMA pipeline. d = 3 is the
// paper-era demonstration; d ≥ 5 (9+ total qubits) is only reachable on
// the trajectory backend, past the density-matrix memory wall.

// RepCodeParams configures the memory experiment.
type RepCodeParams struct {
	// DataQubits is the code distance d: the number of data qubits. It
	// must be odd (majority vote) with 3 ≤ d ≤ 7; zero selects 3. The
	// experiment uses 2d−1 qubits in total (d data + d−1 ancillas), so
	// d ≥ 5 requires the trajectory backend.
	DataQubits int
	// Rounds is the number of protected/unprotected shots.
	Rounds int
	// WaitCycles is the memory time τ in cycles.
	WaitCycles int
	// InitCycles is the per-shot initialization wait.
	InitCycles int
	// MeasureCycles is the MPG duration.
	MeasureCycles int
	Engine
}

// dataQubits resolves the code distance, defaulting to 3.
func (p RepCodeParams) dataQubits() int {
	if p.DataQubits == 0 {
		return 3
	}
	return p.DataQubits
}

// repSyndromeRegs is the register pool holding ancilla readouts during
// decoding (r7/r8 are the historical 3-qubit slots; the rest are free in
// the generated programs). Its length caps DataQubits at 7.
var repSyndromeRegs = []int{7, 8, 3, 4, 10, 14}

// repCodeChunkRounds is the number of shots each parallel sweep job runs.
// The partition of Rounds into chunks is fixed (chunkRounds), independent
// of the worker count, so the measured error rates are deterministic.
const repCodeChunkRounds = 50

// DefaultRepCodeParams waits 1600 cycles (8 µs): with T1 = 30 µs the
// per-qubit decay probability is p = 1 − e^{−8/30} ≈ 0.23 — large enough
// that one round of correction visibly beats the bare qubit without
// saturating the code.
func DefaultRepCodeParams() RepCodeParams {
	return RepCodeParams{Rounds: 300, WaitCycles: 1600, InitCycles: 40000, MeasureCycles: 300}
}

// RepCodeShotProgram returns the per-shot protected-memory program for
// the engine path: exactly one round — encode, memory time, syndrome
// extraction, optional feedback correction, data readout — with no
// classical bookkeeping: the majority vote over the shot's data readouts
// happens in Go from the engine's measurement stream. With correct=false
// the program never consumes a measurement result, making it
// replay-safe; with correct=true the feedback branches keep it on the
// full pipeline.
func RepCodeShotProgram(p RepCodeParams, correct bool) string {
	return repCodeShotProgram(p, "", correct)
}

// repCodeShotProgram is RepCodeShotProgram with an optional injected X
// error ("", "q0", …) applied after encoding — the form the
// deterministic injection tests run once on the full pipeline.
func repCodeShotProgram(p RepCodeParams, inject string, correct bool) string {
	d := p.dataQubits()
	syn := repSyndromeRegs[:d-1]
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, %d", p.InitCycles)
	if correct {
		w("mov r6, 0       # constant 0")
	}
	w("QNopReg r15")
	// Encode |1⟩_L.
	w("Pulse {q0}, X180")
	w("Wait 4")
	for i := 1; i < d; i++ {
		w("Apply2 CNOT, q%d, q0", i)
	}
	if inject != "" {
		w("Pulse {%s}, X180   # injected error", inject)
		w("Wait 4")
	}
	// Memory time.
	if p.WaitCycles > 0 {
		w("Wait %d", p.WaitCycles)
	}
	// Syndrome extraction: ancilla a_j (qubit d+j) = d_j ⊕ d_{j+1}.
	for j := 0; j < d-1; j++ {
		w("Apply2 CNOT, q%d, q%d", d+j, j)
		w("Apply2 CNOT, q%d, q%d", d+j, j+1)
	}
	for j := 0; j < d-1; j++ {
		w("Measure q%d, r%d", d+j, syn[j])
	}
	w("Wait 340          # integration + discrimination latency")
	if correct {
		// Decode by matching each single-error syndrome pattern: an X on
		// data qubit i fires exactly the adjacent syndromes {i−1, i}. For
		// d = 3 this is the textbook table (1,0)→q0, (1,1)→q1, (0,1)→q2;
		// unmatched (multi-error) patterns fall through uncorrected.
		for i := 0; i < d; i++ {
			next := fmt.Sprintf("Try_%d", i+1)
			if i == d-1 {
				next = "Readout"
			}
			if i > 0 {
				w("Try_%d:", i)
			}
			for j := 0; j < d-1; j++ {
				if j == i-1 || j == i {
					w("beq r%d, r6, %s", syn[j], next)
				} else {
					w("bne r%d, r6, %s", syn[j], next)
				}
			}
			w("Pulse {q%d}, X180", i)
			w("Wait 4")
			if i < d-1 {
				w("jmp Readout")
			}
		}
		w("Readout:")
	}
	// Data readout; the majority vote over these results happens in Go.
	if d == 3 {
		// Keep the historical dedicated registers so the injection test
		// can inspect each data qubit.
		w("Measure q0, r9")
		w("Measure q1, r10")
		w("Measure q2, r11")
		w("Wait 340")
	} else {
		// Wider codes read the data qubits sequentially through one
		// register; the Wait covers integration + discrimination latency
		// so each readout retires before the next opens a time point.
		for i := 0; i < d; i++ {
			w("Measure q%d, r9", i)
			w("Wait 340")
		}
	}
	w("halt")
	return b.String()
}

// UnprotectedShotProgram stores one qubit in |1⟩ for the same τ and
// measures it — the per-shot baseline the code is compared against (the
// decay count happens in Go).
func UnprotectedShotProgram(p RepCodeParams) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, %d", p.InitCycles)
	w("QNopReg r15")
	w("Pulse {q0}, X180")
	w("Wait 4")
	if p.WaitCycles > 0 {
		w("Wait %d", p.WaitCycles)
	}
	w("Measure q0, r9")
	w("Wait 340")
	w("halt")
	return b.String()
}

// SyndromeOutcome is the result of one deterministic injection test.
type SyndromeOutcome struct {
	S0, S1 int
	// Data are the final data-qubit readouts after correction.
	Data [3]int
}

// RunRepCodeInjection runs one noiseless round with an explicit injected
// X error — the feedback-corrected shot program, once on the full
// pipeline — and returns the measured syndrome and corrected data
// readout. It verifies the textbook decoding table end to end.
func RunRepCodeInjection(inject string) (*SyndromeOutcome, error) {
	cfg := core.DefaultConfig()
	cfg.NumQubits = 5
	cfg.Qubit = make([]qphys.QubitParams, 5) // noiseless
	cfg.Readout.NoiseSigma = 0               // deterministic readout
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	p := RepCodeParams{Rounds: 1, WaitCycles: 8, InitCycles: 40, MeasureCycles: 300}
	if err := m.RunAssembly(repCodeShotProgram(p, inject, true)); err != nil {
		return nil, err
	}
	out := &SyndromeOutcome{
		S0: int(m.Controller.Regs[7]),
		S1: int(m.Controller.Regs[8]),
	}
	out.Data[0] = int(m.Controller.Regs[9])
	out.Data[1] = int(m.Controller.Regs[10])
	out.Data[2] = int(m.Controller.Regs[11])
	return out, nil
}

// RepCodeResult summarizes the protected-memory experiment.
type RepCodeResult struct {
	Params RepCodeParams
	// PhysicalP is the analytic per-qubit decay probability 1-e^{-τ/T1}.
	PhysicalP float64
	// Unprotected is the measured logical error of a bare qubit.
	Unprotected float64
	// Uncorrected is the measured logical error of the code with
	// syndrome measurement but no feedback.
	Uncorrected float64
	// Protected is the measured logical error with feedback correction.
	Protected float64
}

// RunRepCode runs the three memory variants on identically configured
// machines and reports their logical error rates. Each variant is one
// sweep job whose rounds are shot-sharded on the experiment's fixed chunk
// plan: every (variant, chunk) pair still runs on its own machine seeded
// DeriveSeed2(cfg.Seed, variant, chunk). cfg.Backend selects the state
// substrate;
// p.DataQubits ≥ 5 (9+ total qubits) requires core.BackendTrajectory.
func (e *Env) RunRepCode(ctx context.Context, cfg core.Config, p RepCodeParams) (*RepCodeResult, error) {
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("expt: Rounds must be positive")
	}
	d := p.dataQubits()
	if d%2 == 0 || d < 3 || d > len(repSyndromeRegs)+1 {
		return nil, fmt.Errorf("expt: DataQubits must be odd in 3..%d, got %d", len(repSyndromeRegs)+1, d)
	}
	cfg.NumQubits = 2*d - 1
	for len(cfg.Qubit) < cfg.NumQubits {
		cfg.Qubit = append(cfg.Qubit, qphys.DefaultQubitParams())
	}
	// The per-shot measurement stream of a code round is the d−1 syndrome
	// readouts followed by the d data readouts; the logical state is the
	// majority of the data bits.
	majorityError := func(md []replay.MD) bool {
		if len(md) < d {
			return true
		}
		ones := 0
		for _, r := range md[len(md)-d:] {
			ones += r.Result
		}
		return ones < (d+1)/2
	}
	variants := []chunkVariant{
		{src: UnprotectedShotProgram(p), isError: func(md []replay.MD) bool {
			return len(md) < 1 || md[0].Result == 0 // read 0: the stored 1 was lost
		}},
		{src: RepCodeShotProgram(p, false), isError: majorityError},
		{src: RepCodeShotProgram(p, true), isError: majorityError},
	}
	errors, err := runChunkedVariants(ctx, e, cfg, p.Rounds, p.Engine, variants)
	if err != nil {
		return nil, err
	}
	res := &RepCodeResult{Params: p}
	tau := float64(p.WaitCycles) * 5e-9
	if t1 := cfg.Qubit[0].T1; t1 > 0 {
		res.PhysicalP = 1 - math.Exp(-tau/t1)
	}
	res.Unprotected, res.Uncorrected, res.Protected = errors[0], errors[1], errors[2]
	return res, nil
}

// chunkVariant is one program variant of a chunked memory experiment: a
// per-shot program (shared by every chunk, so it assembles once) and the
// predicate classifying a shot's measurement stream as a logical error.
type chunkVariant struct {
	src     string
	isError func(md []replay.MD) bool
}

// runChunkedVariants runs each per-shot program variant for a total of
// `rounds` shots on the shot-shard engine — one sweep job per variant,
// whose shot range is forced onto the experiment's historical chunk plan
// chunkRounds(rounds, repCodeChunkRounds) instead of the automatic
// ShotShardPlan — and returns each variant's logical-error fraction.
// Shard k of variant v is seeded DeriveSeed(DeriveSeed(cfg.Seed, v+1), k)
// ≡ DeriveSeed2(cfg.Seed, v+1, k), the exact seeds the pre-sharding
// (variant, chunk) job fan-out used, so the measured fractions are
// bit-identical to earlier releases for every Rounds, worker count, and
// replay mode. Error counting consumes only the engine's measurement
// stream, which is bit-identical between full simulation and replay.
func runChunkedVariants(ctx context.Context, env *Env, cfg core.Config, rounds int, eng Engine, variants []chunkVariant) ([]float64, error) {
	plan := chunkRounds(rounds, repCodeChunkRounds)
	out := make([]float64, len(variants))
	pool := env.poolFor(cfg)
	err := runPool(ctx, len(variants), eng.Workers, func(v int) error {
		prog, err := env.progs.get(variants[v].src)
		if err != nil {
			return err
		}
		var errs int64
		_, err = runShotJobSharded(ctx, pool, DeriveSeed(cfg.Seed, v+1), prog, rounds, plan, eng, nil,
			func(_ int, md []replay.MD) {
				if variants[v].isError(md) {
					errs++
				}
			}, nil)
		if err != nil {
			return err
		}
		out[v] = float64(errs) / float64(rounds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the comparison.
func (r *RepCodeResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory time: %d cycles (%.1f µs), physical decay p = %.3f\n",
		r.Params.WaitCycles, float64(r.Params.WaitCycles)*5e-3, r.PhysicalP)
	fmt.Fprintf(&b, "%-34s %s\n", "variant", "logical error")
	fmt.Fprintf(&b, "%-34s %.4f\n", "bare qubit", r.Unprotected)
	fmt.Fprintf(&b, "%-34s %.4f\n", "code, syndromes only (no feedback)", r.Uncorrected)
	fmt.Fprintf(&b, "%-34s %.4f\n", "code + feedback correction", r.Protected)
	return b.String()
}
