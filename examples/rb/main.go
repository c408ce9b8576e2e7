// Randomized benchmarking (paper Section 8 mentions RB among the
// validation experiments): random Clifford sequences of increasing
// length, each closed by the recovery Clifford, with the ground-state
// survival fitted to F(m) = A·p^m + B.
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
		trials   = flag.Int("trials", 6, "random sequences per length")
		rounds   = flag.Int("rounds", 100, "shots per sequence")
		ampError = flag.Float64("amp-error", 0, "pulse amplitude miscalibration ε")
		seed     = flag.Int64("seed", 1, "PRNG seed")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.AmplitudeError = *ampError

	p := expt.DefaultRBParams()
	p.Lengths = []int{1, 2, 4, 8, 16, 32, 64}
	p.Trials = *trials
	p.Rounds = *rounds
	p.Seed = *seed

	res, err := expt.NewEnv().RunRB(context.Background(), cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	fmt.Printf("avg pulses per Clifford: %.2f\n", res.AvgPulsesPerClifford)
	fmt.Println("\nper-trial survivals:")
	for i, m := range p.Lengths {
		fmt.Printf("  m=%-4d %v\n", m, res.PerTrial[i])
	}
}
