package replay

import (
	"context"
	"fmt"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
)

// TestRunBatchUnequalLanesMatchRun pins RunBatch's per-lane contract
// for lanes of different shot counts: each lane's measurement stream,
// stats, counters and final state bits must equal a standalone Run of
// that lane. The counts make the lockstep group shrink several times
// (to two survivors, then to a lone scalar survivor), include a lane
// too short to replay, one lane a single shot longer than another, and
// one lane running the call's default count.
func TestRunBatchUnequalLanesMatchRun(t *testing.T) {
	srcs := map[int]string{
		1: `
mov r15, 400
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0}, Y90
Wait 4
MPG {q0}, 300
MD {q0}, r7
Wait 340
Pulse {q0}, Xm90
Wait 4
halt
`,
		2: `
mov r15, 400
QNopReg r15
Pulse {q0}, X90
Wait 4
Pulse {q0, q1}, CZ
Wait 4
Pulse {q1}, Y90
Wait 4
MPG {q0}, 300
MD {q0}, r7
MPG {q1}, 300
MD {q1}, r8
Wait 340
halt
`,
	}
	counts := []int{40, 25, 2, 0, 61, 26, 9}
	const defaultShots = 33
	for nq, src := range srcs {
		t.Run(fmt.Sprintf("nq=%d", nq), func(t *testing.T) {
			prog := asm.MustAssemble(src)
			cfg := core.DefaultConfig()
			cfg.Backend = core.BackendTrajectory
			cfg.NumQubits = nq
			cfg.CollectK = nq
			newMachine := func(lane int) *core.Machine {
				c := cfg
				c.Seed = int64(100 + lane)
				m, err := core.New(c)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			record := func(hist *[][]MD) func(int, []MD) {
				return func(shot int, md []MD) {
					*hist = append(*hist, append([]MD{{Qubit: -1, Result: shot}}, md...))
				}
			}

			lanes := make([]BatchLane, len(counts))
			hists := make([][][]MD, len(counts))
			for i, n := range counts {
				lanes[i] = BatchLane{M: newMachine(i), BaseShot: 1000 * i, Shots: n, OnShot: record(&hists[i])}
			}
			stats, err := RunBatch(context.Background(), prog, lanes, defaultShots, ModeCompiled)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range counts {
				if n == 0 {
					n = defaultShots
				}
				m := newMachine(i)
				var want [][]MD
				st, err := Run(context.Background(), m, prog, Options{Shots: n, Mode: ModeCompiled, BaseShot: 1000 * i, OnShot: record(&want)})
				if err != nil {
					t.Fatal(err)
				}
				if n > detectShots && !st.Compiled {
					t.Fatalf("lane %d did not replay: %+v", i, st)
				}
				if stats[i] != st {
					t.Errorf("lane %d: stats %+v, standalone %+v", i, stats[i], st)
				}
				requireIdentical(t, want, hists[i], m, lanes[i].M)
				wb, gb := stateBits(t, m.State), stateBits(t, lanes[i].M.State)
				for k := range wb {
					if wb[k] != gb[k] {
						t.Fatalf("lane %d: final state differs at word %d", i, k)
					}
				}
			}
		})
	}
}
