// AllXY: the paper's Section 8 validation experiment, reproduced on the
// simulated stack (Figure 9). Runs the 21 gate-pair sequence (each pair
// twice), averages over N rounds, rescales by the in-experiment
// calibration points, and prints the staircase with its deviation.
//
// Flags allow injecting the classic calibration errors to see their
// AllXY signatures:
//
//	go run ./examples/allxy                     # calibrated
//	go run ./examples/allxy -amp-error -0.1     # 10% under-rotation
//	go run ./examples/allxy -detuning 200e3     # 200 kHz off resonance
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/qphys"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 800, "averaging rounds N (paper: 25600)")
		ampError = flag.Float64("amp-error", 0, "fractional pulse amplitude error ε")
		detuning = flag.Float64("detuning", 0, "drive-qubit detuning in Hz")
		seed     = flag.Int64("seed", 1, "PRNG seed")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.AmplitudeError = *ampError
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = *detuning
	cfg.Qubit = []qphys.QubitParams{qp}

	params := expt.DefaultAllXYParams()
	params.Rounds = *rounds

	res, err := expt.NewEnv().RunAllXY(context.Background(), cfg, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Staircase())
	fmt.Printf("\npulses played: %d  |  lookup-table memory: %d bytes (vs 2520 for whole waveforms)\n",
		res.PulsesPlayed, res.MemoryBytes)
	if *ampError == 0 && *detuning == 0 {
		fmt.Println("calibrated run: expect a clean 0 / 0.5 / 1 staircase (paper: deviation 0.012)")
	} else {
		fmt.Println("miscalibrated run: compare the signature against the calibrated staircase")
	}
}
