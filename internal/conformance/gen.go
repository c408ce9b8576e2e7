// Package conformance holds the randomized differential test layer for
// the execution matrix: seeded generators of assembly programs, run
// across every {state backend} × {replay mode} combination and checked
// for agreement — the quantum-control analogue of the randomized
// instruction suites that keep CPU emulators honest against their
// reference implementations.
//
// Three program populations cover the matrix's failure modes:
//
//   - replay-safe programs (pulses, waits, CNOTs, measurements whose
//     results are never consumed classically): shots past the detection
//     prefix replay — the differential run catches any divergence
//     between full simulation and compiled replay;
//   - replay-unsafe programs (measurement-dependent branches and
//     arithmetic): the engine must detect them and fall back, with
//     results identical across modes anyway;
//   - deterministic programs (π pulses and CNOTs on noiseless qubits
//     with noiseless readout): every backend and every mode must agree
//     exactly, shot for shot — the only population where cross-backend
//     equality is exact rather than statistical.
//
// Generation is seeded and the seed list is committed in the test file,
// so any failure reproduces bit-for-bit.
package conformance

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind selects a generated program population.
type Kind int

const (
	// Safe programs are feedback-free: replay-eligible by construction.
	Safe Kind = iota
	// Unsafe programs consume measurement results classically
	// (conditional pulses, tainted arithmetic): the engine must fall
	// back to full simulation without changing a single result bit.
	Unsafe
	// Deterministic programs use only π pulses and CNOTs, for noiseless
	// machines where every measurement outcome is certain: the exact
	// cross-backend population.
	Deterministic
)

func (k Kind) String() string {
	switch k {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	case Deterministic:
		return "deterministic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// pulseNames is the Table 1 library (see awg.StandardLibrary); the
// deterministic population uses only the π subset, which maps
// computational basis states to computational basis states.
var (
	pulseNames = []string{"I", "X180", "X90", "Xm90", "Y180", "Y90", "Ym90"}
	piPulses   = []string{"X180", "Y180"}
)

// Generate emits one random program over nQubits qubits with roughly
// nOps body operations, driven entirely by rng — the same (rng state,
// arguments) always yields the same text. Every wait and measurement
// window is a multiple of 4 cycles (one SSB period at the default
// modulation), so generated shot periods stay phase-aligned and safe
// programs really are detected safe.
func Generate(rng *rand.Rand, kind Kind, nQubits, nOps int) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("mov r15, 4000")
	if kind == Unsafe {
		w("mov r6, 0")
	}
	w("QNopReg r15")

	// For the deterministic population the generator tracks the
	// classical bit-state (π pulses and CNOTs permute basis states), so
	// it can emit an unconditional reset after readout: noiseless qubits
	// never relax, and without the reset the measured-and-kept state
	// would alternate across shots instead of repeating.
	bits := make([]bool, nQubits)
	labels := 0
	measured := false
	for i := 0; i < nOps; i++ {
		switch op := rng.Intn(8); {
		case op < 3: // single-qubit pulse
			q := rng.Intn(nQubits)
			name := pulseNames[rng.Intn(len(pulseNames))]
			if kind == Deterministic {
				name = piPulses[rng.Intn(len(piPulses))]
				bits[q] = !bits[q]
			}
			w("Pulse {q%d}, %s", q, name)
			w("Wait 4")
		case op < 4: // idle
			w("Wait %d", 4*(1+rng.Intn(5)))
		case op < 6 && nQubits >= 2: // two-qubit gate via microcode
			a := rng.Intn(nQubits) // target
			bq := rng.Intn(nQubits - 1)
			if bq >= a {
				bq++
			}
			bits[a] = bits[a] != bits[bq]
			w("Apply2 CNOT, q%d, q%d", a, bq)
		case op < 7 && kind != Deterministic: // mid-circuit measurement
			q := rng.Intn(nQubits)
			w("MPG {q%d}, 300", q)
			w("MD {q%d}, r7", q)
			w("Wait 340")
			measured = true
			if kind == Unsafe {
				// Consume the result: half the time a feedback branch
				// (the schedule then really varies shot to shot), half
				// the time tainted arithmetic (schedule-invariant, but
				// the taint tracker must still refuse to replay).
				if rng.Intn(2) == 0 {
					labels++
					w("beq r7, r6, Skip_%d", labels)
					w("Pulse {q%d}, X180", q)
					w("Wait 4")
					w("Skip_%d:", labels)
				} else {
					w("add r9, r9, r7")
				}
			}
		default:
			w("Wait 4")
		}
	}
	// An Unsafe program must consume at least one measurement; if the
	// draw above never measured, append the minimal feedback tail.
	if kind == Unsafe && !measured {
		w("MPG {q0}, 300")
		w("MD {q0}, r7")
		w("Wait 340")
		w("add r9, r9, r7")
	}
	// Epilogue: read out every qubit (results flow to the engine's
	// measurement stream; nothing classical consumes them).
	for q := 0; q < nQubits; q++ {
		w("MPG {q%d}, 300", q)
		w("MD {q%d}, r7", q)
		w("Wait 340")
	}
	// Deterministic reset: return every |1⟩ qubit to ground with an
	// unconditional flip — valid because its post-measurement state is
	// known at generation time — so consecutive shots are identical.
	if kind == Deterministic {
		for q, set := range bits {
			if set {
				w("Pulse {q%d}, X180", q)
				w("Wait 4")
			}
		}
	}
	w("halt")
	return b.String()
}
