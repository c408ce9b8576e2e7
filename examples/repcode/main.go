// Repetition code: the error-correction workload that motivates QuMA's
// fast measurement discrimination and feedback (the paper cites the
// repetition-code demonstrations of Kelly et al. and Ristè et al. as the
// architecture's target applications).
//
// Three data qubits encode logical |1⟩; two ancillas extract the bit-flip
// syndromes through microcoded CNOTs; the controller branches on the
// measured syndromes and applies the correction pulse — all inside one
// program on the simulated QuMA box. The run compares the logical error
// of a bare qubit, the code without feedback, and the code with feedback,
// as the memory time grows.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"quma/internal/core"
	"quma/internal/expt"
)

func main() {
	var (
		rounds  = flag.Int("rounds", 300, "shots per variant per memory time")
		seed    = flag.Int64("seed", 3, "PRNG seed")
		backend = flag.String("backend", "density", "state backend for the memory sweep (density or trajectory)")
	)
	flag.Parse()
	env := expt.NewEnv()
	ctx := context.Background()

	// First: the deterministic syndrome table (noiseless injected errors).
	fmt.Println("syndrome decoding table (injected X errors, noiseless):")
	for _, inject := range []string{"", "q0", "q1", "q2"} {
		out, err := expt.RunRepCodeInjection(inject)
		if err != nil {
			log.Fatal(err)
		}
		label := inject
		if label == "" {
			label = "none"
		}
		fmt.Printf("  error %-5s -> syndrome (%d,%d), corrected data %v\n",
			label, out.S0, out.S1, out.Data)
	}

	// Then: the memory experiment at increasing wait times.
	fmt.Println("\nlogical memory error vs memory time:")
	fmt.Printf("%-10s %-10s %-10s %-12s %s\n", "τ (µs)", "phys p", "bare", "no-feedback", "corrected")
	for _, waitCycles := range []int{400, 800, 1600, 3200} {
		cfg := core.DefaultConfig()
		cfg.Seed = *seed
		cfg.Backend = core.Backend(*backend)
		p := expt.DefaultRepCodeParams()
		p.Rounds = *rounds
		p.WaitCycles = waitCycles
		res, err := env.RunRepCode(ctx, cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10.1f %-10.3f %-10.3f %-12.3f %.3f\n",
			float64(waitCycles)*5e-3, res.PhysicalP, res.Unprotected, res.Uncorrected, res.Protected)
	}
	fmt.Println("\nexpected shape: corrected < bare for small p (≈3p² vs p)")

	// Finally: the distance-5 code (9 qubits — only the trajectory
	// backend can hold the register).
	fmt.Println("\ndistance-5 code (9 qubits, trajectory backend):")
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Backend = core.BackendTrajectory
	p := expt.DefaultRepCodeParams()
	p.DataQubits = 5
	p.Rounds = *rounds
	p.WaitCycles = 800
	res, err := env.RunRepCode(ctx, cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
}
