// T1 / T2 Ramsey / T2 Echo: the coherence-time experiments the paper
// lists among its validation runs. Each is a delay sweep compiled to one
// program whose data-collection indices cover the sweep points; the
// analysis fits the standard models and compares against the configured
// simulator parameters.
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
		rounds   = flag.Int("rounds", 300, "averaging rounds per delay point")
		detuning = flag.Float64("detuning", 100e3, "Ramsey artificial detuning in Hz")
		seed     = flag.Int64("seed", 1, "PRNG seed")
	)
	flag.Parse()
	env := expt.NewEnv()
	ctx := context.Background()

	qp := qphys.DefaultQubitParams()
	fmt.Printf("simulated qubit: T1 = %.0f µs, T2 = %.0f µs\n\n", qp.T1*1e6, qp.T2*1e6)

	// ---- T1
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	p := expt.DefaultSweepParams()
	p.Rounds = *rounds
	t1, err := env.RunT1(ctx, cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T1 sweep (%d points): fitted T1 = %.1f µs\n", len(t1.DelaysSec), t1.Fit.Tau*1e6)
	printCurve(t1.DelaysSec, t1.Excited)

	// ---- Ramsey with artificial detuning
	cfg = core.DefaultConfig()
	cfg.Seed = *seed
	qpd := qp
	qpd.FreqDetuningHz = *detuning
	cfg.Qubit = []qphys.QubitParams{qpd}
	pr := expt.DefaultSweepParams()
	pr.Rounds = *rounds
	pr.DelaysCycles = nil
	for i := 0; i < 40; i++ {
		pr.DelaysCycles = append(pr.DelaysCycles, i*200) // 1 µs steps
	}
	ram, err := env.RunRamsey(ctx, cfg, pr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRamsey: fringe %.1f kHz (set %.1f kHz), T2* = %.1f µs\n",
		ram.Fit.Freq/1e3, *detuning/1e3, ram.Fit.Tau*1e6)
	printCurve(ram.DelaysSec, ram.Excited)

	// ---- Echo refocuses the same detuning
	cfg = core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Qubit = []qphys.QubitParams{qpd}
	pe := expt.DefaultSweepParams()
	pe.Rounds = *rounds
	echo, err := env.RunEcho(ctx, cfg, pe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEcho: tau = %.1f µs, floor %.2f (fringes refocused by the π pulse)\n",
		echo.Fit.Tau*1e6, echo.Fit.C)
	printCurve(echo.DelaysSec, echo.Excited)
}

// printCurve renders a crude ASCII plot: one row per point.
func printCurve(xs, ys []float64) {
	for i := range xs {
		bar := int(ys[i]*40 + 0.5)
		if bar < 0 {
			bar = 0
		}
		if bar > 40 {
			bar = 40
		}
		fmt.Printf("  %6.1f µs  %6.3f  |%s\n", xs[i]*1e6, ys[i], repeat('#', bar))
	}
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
