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

// Phase-flip repetition code: the dual of the bit-flip code, protecting
// against dephasing (Z errors) by conjugating the code with Hadamards.
// Data is stored in the |±⟩ basis during the memory time, where pure
// dephasing acts as a bit flip on the encoded information; rotating back
// before syndrome extraction reduces decoding to the bit-flip machinery
// already exercised by RunRepCode. Every Hadamard is the microcoded
// three-pulse emulation from the Q control store.

// phaseCodeShotProgram builds the per-shot protected phase-memory
// program. The round loop and the majority count live in the engine; the
// active-reset prologue reads the previous shot's readout registers
// (fresh machines start with all-zero registers, so shot 0 resets
// nothing, exactly like the zeroed prologue of the old in-assembly loop).
// That cross-shot feedback is the whole point of the program — and is
// also precisely what the replay-safety detector flags, so phase-code
// shots always run on the full pipeline.
func phaseCodeShotProgram(p RepCodeParams, correct bool) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, %d", p.InitCycles)
	w("mov r6, 0")
	w("QNopReg r15")
	// Dephasing-dominated qubits do not relax back to |0⟩ by waiting
	// (T1 ≫ init time), so initialization is feedback-based active
	// reset: every qubit's post-measurement state equals its last
	// readout register, and a conditional π pulse returns it to ground —
	// the paper's future-work feedback applied as state preparation.
	for i, reg := range []string{"r9", "r10", "r11", "r7", "r8"} {
		w("beq %s, r6, Reset_Done_%d", reg, i)
		w("Pulse {q%d}, X180", i)
		w("Wait 4")
		w("Reset_Done_%d:", i)
	}
	// Encode |1⟩_L in the bit basis, then rotate into the |±⟩ basis.
	w("Pulse {q0}, X180")
	w("Wait 4")
	w("Apply2 CNOT, q1, q0")
	w("Apply2 CNOT, q2, q0")
	w("Apply H, q0")
	w("Apply H, q1")
	w("Apply H, q2")
	// Memory time: dephasing flips |+⟩ ↔ |−⟩.
	if p.WaitCycles > 0 {
		w("Wait %d", p.WaitCycles)
	}
	// Rotate back; dephasing errors now look like bit flips.
	w("Apply H, q0")
	w("Apply H, q1")
	w("Apply H, q2")
	// Standard bit-flip syndrome extraction and correction.
	w("Apply2 CNOT, q3, q0")
	w("Apply2 CNOT, q3, q1")
	w("Apply2 CNOT, q4, q1")
	w("Apply2 CNOT, q4, q2")
	w("Measure q3, r7")
	w("Measure q4, r8")
	w("Wait 340")
	if correct {
		w("beq r7, r6, S0_Zero")
		w("beq r8, r6, Flip_D0")
		w("Pulse {q1}, X180")
		w("Wait 4")
		w("jmp Readout")
		w("Flip_D0:")
		w("Pulse {q0}, X180")
		w("Wait 4")
		w("jmp Readout")
		w("S0_Zero:")
		w("beq r8, r6, Readout")
		w("Pulse {q2}, X180")
		w("Wait 4")
		w("Readout:")
	}
	w("Measure q0, r9")
	w("Measure q1, r10")
	w("Measure q2, r11")
	w("Wait 340")
	w("halt")
	return b.String()
}

// barePhaseShotProgram stores a superposition on one qubit for τ per
// shot: X90, wait, Xm90 — ideally returning to |0⟩, reading 1 with
// probability (1−e^{−τ/T2})/2 (the flip count happens in Go). Like the
// code variant it opens with an active reset off the previous shot's
// readout register, so it too always falls back to full simulation.
func barePhaseShotProgram(p RepCodeParams) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, %d", p.InitCycles)
	w("mov r6, 0")
	w("QNopReg r15")
	// Active reset from the previous shot's readout (see
	// phaseCodeShotProgram): waiting does not reinitialize a dephasing-
	// dominated qubit.
	w("beq r9, r6, Reset_Done")
	w("Pulse {q0}, X180")
	w("Wait 4")
	w("Reset_Done:")
	w("Pulse {q0}, X90")
	w("Wait 4")
	if p.WaitCycles > 0 {
		w("Wait %d", p.WaitCycles)
	}
	w("Pulse {q0}, Xm90")
	w("Wait 4")
	w("Measure q0, r9")
	w("Wait 340")
	w("halt")
	return b.String()
}

// PhaseCodeResult summarizes the phase-memory experiment.
type PhaseCodeResult struct {
	Params RepCodeParams
	// PhysicalP is the analytic per-qubit phase-flip probability
	// (1−e^{−2τ/Tφ})/2 for pure dephasing.
	PhysicalP float64
	// Bare is the measured error of an unencoded superposition.
	Bare float64
	// Protected is the measured logical error with feedback correction.
	Protected float64
}

// DephasingQubit returns parameters for a dephasing-dominated qubit
// (T1 effectively infinite, T2 = tphi·2... the package uses total T2):
// the channel the phase code is built to fight.
func DephasingQubit(t2 float64) qphys.QubitParams {
	return qphys.QubitParams{T1: 10, T2: t2} // T1 = 10 s: negligible decay
}

// RunPhaseCode compares a bare superposition against the feedback-
// corrected phase-flip code on dephasing-dominated qubits.
func (e *Env) RunPhaseCode(ctx context.Context, cfg core.Config, p RepCodeParams) (*PhaseCodeResult, error) {
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("expt: Rounds must be positive")
	}
	if d := p.dataQubits(); d != 3 {
		return nil, fmt.Errorf("expt: the phase code is fixed at 3 data qubits, got %d", d)
	}
	cfg.NumQubits = 5
	if len(cfg.Qubit) == 0 {
		for i := 0; i < 5; i++ {
			cfg.Qubit = append(cfg.Qubit, DephasingQubit(20e-6))
		}
	}
	for len(cfg.Qubit) < 5 {
		cfg.Qubit = append(cfg.Qubit, cfg.Qubit[0])
	}
	variants := []chunkVariant{
		{src: barePhaseShotProgram(p), isError: func(md []replay.MD) bool {
			return len(md) < 1 || md[0].Result == 1 // read 1: phase flipped
		}},
		{src: phaseCodeShotProgram(p, true), isError: func(md []replay.MD) bool {
			if len(md) < 3 {
				return true
			}
			ones := 0
			for _, r := range md[len(md)-3:] {
				ones += r.Result
			}
			return ones < 2
		}},
	}
	errors, err := runChunkedVariants(ctx, e, cfg, p.Rounds, p.Engine, variants)
	if err != nil {
		return nil, err
	}
	res := &PhaseCodeResult{Params: p}
	tau := float64(p.WaitCycles) * 5e-9
	if t2 := cfg.Qubit[0].T2; t2 > 0 {
		// Coherence decays as e^{−τ/Tφ'} with 1/Tφ' = 1/T2 − 1/(2·T1);
		// the equivalent phase-flip probability is (1 − coherence)/2.
		invTphi := 1/t2 - 1/(2*cfg.Qubit[0].T1)
		res.PhysicalP = (1 - math.Exp(-tau*invTphi)) / 2
	}
	res.Bare, res.Protected = errors[0], errors[1]
	return res, nil
}

// Table renders the comparison.
func (r *PhaseCodeResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memory time: %d cycles (%.1f µs), physical phase-flip p = %.3f\n",
		r.Params.WaitCycles, float64(r.Params.WaitCycles)*5e-3, r.PhysicalP)
	fmt.Fprintf(&b, "%-30s %.4f\n", "bare superposition", r.Bare)
	fmt.Fprintf(&b, "%-30s %.4f\n", "phase code + feedback", r.Protected)
	return b.String()
}
