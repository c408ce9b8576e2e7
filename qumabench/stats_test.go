package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestP95OfHundredSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	if got, want := quantile(xs, 0.95), 95.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("p95 = %v, want %v", got, want)
	}
}

func TestSampleCountForP95(t *testing.T) {
	// The run size the benchmark asks for leaves at least minBeyond
	// samples above p95; half of it does not.
	if got := beyond(minSamplesP95, 0.95); got < minBeyond {
		t.Errorf("beyond(%d, 0.95) = %d, want >= %d", minSamplesP95, got, minBeyond)
	}
	if got := beyond(minSamplesP95/2, 0.95); got >= minBeyond {
		t.Errorf("beyond(%d, 0.95) = %d, want < %d", minSamplesP95/2, got, minBeyond)
	}
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {20, 1}, {100, 5}, {200, 10}} {
		if got := beyond(c.n, 0.95); got != c.want {
			t.Errorf("beyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBlockRatesMedianIgnoresASlowMinority(t *testing.T) {
	// Operations of 10 ms and 100 shots; a burst over the first five of
	// twelve blocks costs 40 ms each and moves none of the median.
	n := e2eBlocks * 20
	cost, shots := make([]float64, n), make([]int64, n)
	for i := range cost {
		cost[i], shots[i] = 10, 100
		if i < 5*20 {
			cost[i] = 40
		}
	}
	rates := blockRates(cost, shots)
	if len(rates) != e2eBlocks {
		t.Fatalf("%d blocks, want %d", len(rates), e2eBlocks)
	}
	if got := median(rates); math.Abs(got-1e4) > 1e-6 {
		t.Errorf("median rate = %v shots/s, want 1e4", got)
	}
	if math.Abs(rates[0]-2500) > 1e-6 {
		t.Errorf("slow block rate = %v shots/s, want 2500", rates[0])
	}
}

func TestBlockRatesShrinkWithFewOperations(t *testing.T) {
	for _, n := range []int{0, 1, 5, e2eBlocks, 10 * e2eBlocks} {
		cost, shots := make([]float64, n), make([]int64, n)
		for i := range cost {
			cost[i], shots[i] = 1, 1
		}
		if got, want := len(blockRates(cost, shots)), min(n, e2eBlocks); got != want {
			t.Errorf("%d operations: %d blocks, want %d", n, got, want)
		}
	}
}

func TestCPUTimeAdvances(t *testing.T) {
	c0 := cpuTime()
	x := 1.0
	for i := 0; i < 10_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	if d := cpuTime() - c0; d <= 0 || x == 0 {
		t.Errorf("CPU time moved %v over a busy loop, want > 0", d)
	}
}

func TestRSSOfSelf(t *testing.T) {
	cur, err := rssMiB(0, vmRSS)
	if err != nil {
		t.Skipf("no /proc on this system: %v", err)
	}
	peak, err := rssMiB(0, vmHWM)
	if err != nil {
		t.Fatal(err)
	}
	if cur <= 0 || peak < cur {
		t.Errorf("RSS %v MiB, peak %v MiB: want 0 < RSS <= peak", cur, peak)
	}
}
