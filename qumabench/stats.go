package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "type 7" rule: the median of
// an even count is the mean of the middle pair). xs is not modified. An
// empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A run reports a tail percentile only with at least minBeyond samples
// above it. The benchmark reports p95 and so wants minSamplesP95 samples
// per run.
const (
	minBeyond     = 10
	minSamplesP95 = 200
)

// beyond returns how many of n samples lie strictly above the q-quantile
// rank — the count the tail-percentile rule is about.
func beyond(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime returns the CPU time this process has used, user and system,
// all threads. Time the hypervisor stole from the virtual CPUs is not in
// it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat:
// ticks stolen by the hypervisor and ticks in total. Their deltas over a
// window give the share of the machine's time other guests took, which
// explains a slow run without entering any metric.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the steal share of a window.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// share returns the stolen share of the machine's time since start.
func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// Resident-set fields of /proc/<pid>/status.
const (
	vmRSS = "VmRSS:" // current resident set size
	vmHWM = "VmHWM:" // its high-water mark
)

// rssMiB reads a resident-set field (vmRSS or vmHWM) of a process from
// /proc; pid 0 means the calling process.
func rssMiB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
