package qphys

// Per-lane bit-identity pins for the lockstep batched executor: every
// lane of a TrajBatch must produce exactly the amplitudes, measurement
// outcomes, carries, and PRNG stream position that running the same
// compiled schedule on that lane's scalar Trajectory would. The suite
// drives the same representative schedule as the scalar executor's
// pins (channels with fast and slow paths, dense Kraus fallbacks,
// rotating-frame unitaries with carry chains, CZ, dense two-qubit
// gates, measurements with and without carries) and compares under ==,
// plus targeted pins for the degenerate measurement reset and the
// zero-allocation steady state. A one-qubit schedule covers the lane
// kernel (batch1.go) the same way.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchTestSchedule is the representative compiled schedule the batch
// pins run: every op kind, carry chains (including the circular wrap),
// a dense channel that always takes the scalar fallback, and measures
// both carrying and not.
func batchTestSchedule() []SchedOp {
	chans := testChannels()
	deco := func(name string) *ChannelTable { return NewChannelTable(chans[name]) }
	x180 := REquator(0, math.Pi)
	return []SchedOp{
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-huge"), CarryFor: -1},
		{Kind: SchedApply1RD, Q: 0, U: x180, CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-short"), CarryFor: 1},
		{Kind: SchedChannel, Q: 1, Ch: deco("decoherence-short"), CarryFor: 4},
		{Kind: SchedCZ, Q: 1, Qb: 0, U: CZ(), PhaseSafe: true},
		{Kind: SchedChannel, Q: 4, Ch: deco("decoherence-long"), CarryFor: -1},
		{Kind: SchedApply1, Q: 2, U: RZ(0.4).Mul(RX(0.3)), CarryFor: 2},
		{Kind: SchedChannel, Q: 2, Ch: deco("depolarizing"), CarryFor: 3},
		{Kind: SchedMeasure, Q: 3, CarryFor: 3},
		{Kind: SchedChannel, Q: 3, Ch: deco("decoherence-short"), CarryFor: -1},
		{Kind: SchedApply2, Q: 0, Qb: 2, U: Embedded2ForTest(), CarryFor: -1},
		{Kind: SchedChannel, Q: 1, Ch: deco("dense"), CarryFor: 1},
		{Kind: SchedMeasure, Q: 1, CarryFor: -1},
		{Kind: SchedChannel, Q: 2, Ch: deco("decoherence-long"), CarryFor: 0},
	}
}

// batchTestSchedule1 is the one-qubit counterpart of
// batchTestSchedule, for the lane kernel: fast and jumping channels,
// a dense channel, both unitary kinds with and without carries,
// measures carrying and not, and a trailing carry that wraps into the
// next shot's first channel.
func batchTestSchedule1() []SchedOp {
	chans := testChannels()
	deco := func(name string) *ChannelTable { return NewChannelTable(chans[name]) }
	return []SchedOp{
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-huge"), CarryFor: 0},
		{Kind: SchedApply1RD, Q: 0, U: REquator(0, math.Pi), CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-short"), CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-long"), CarryFor: -1},
		{Kind: SchedApply1, Q: 0, U: RZ(0.4).Mul(RX(0.3)), CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("depolarizing"), CarryFor: 0},
		{Kind: SchedMeasure, Q: 0, CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("thermal"), CarryFor: -1},
		{Kind: SchedApply1RD, Q: 0, U: REquator(0.7, math.Pi/2), CarryFor: -1},
		{Kind: SchedApply1, Q: 0, U: Hadamard(), CarryFor: -1},
		{Kind: SchedChannel, Q: 0, Ch: deco("dense"), CarryFor: 0},
		{Kind: SchedMeasure, Q: 0, CarryFor: -1},
		{Kind: SchedChannel, Q: 0, Ch: deco("damping"), CarryFor: 0},
	}
}

// simdModes lists the span-kernel bodies the host can run: the SIMD
// kernels when present, and always the pure-Go bodies.
func simdModes() []bool {
	if useSIMD {
		return []bool{true, false}
	}
	return []bool{false}
}

// withSIMD runs f with the SIMD span kernels enabled or disabled.
func withSIMD(on bool, f func()) {
	simd512, simd := useSIMD512, useSIMD
	defer func() { useSIMD512, useSIMD = simd512, simd }()
	if !on {
		useSIMD512, useSIMD = false, false
	}
	f()
}

// runLanesLikeReplay runs lane l for counts[l] shots the way
// replay.RunBatch does: in lockstep up to the shortest remaining count,
// then the survivors in a fresh batch (carries dropped), and a lone
// survivor on the scalar executor with a fresh carry.
func runLanesLikeReplay(lanes []*Trajectory, counts []int, ops []SchedOp, out [][]int) {
	group := make([]int, len(lanes))
	for l := range group {
		group[l] = l
	}
	done := 0
	for len(group) > 1 {
		end := counts[group[0]]
		members := make([]*Trajectory, len(group))
		for j, l := range group {
			end = min(end, counts[l])
			members[j] = lanes[l]
		}
		b := NewTrajBatch(members)
		if b.Lanes() != len(members) {
			panic("Lanes() disagrees with the member count")
		}
		for ; done < end; done++ {
			b.RunScheduleBatch(ops, func(j, q, outcome int) {
				out[group[j]] = append(out[group[j]], outcome)
			})
		}
		b.Scatter()
		var survivors []int
		for _, l := range group {
			if counts[l] > done {
				survivors = append(survivors, l)
			}
		}
		group = survivors
	}
	if len(group) == 1 {
		l := group[0]
		carry, carryQ := PopCarry{}, -1
		for ; done < counts[l]; done++ {
			carry, carryQ = lanes[l].RunSchedule(ops, carry, carryQ, func(q, outcome int) {
				out[l] = append(out[l], outcome)
			})
		}
	}
}

// TestRunScheduleBatchMatchesScalarPerLane is the tentpole kernel pin:
// for every lane width, at five qubits (span passes) and one (lane
// kernel), under the SIMD and the pure-Go span bodies, each lane of the
// batch must track its scalar RunSchedule twin bit for bit —
// amplitudes, outcomes, and PRNG position — across multiple shots with
// carries threading shot to shot. Odd bases give the lanes unequal
// shot counts, run as replay.RunBatch runs them.
func TestRunScheduleBatchMatchesScalarPerLane(t *testing.T) {
	const shots = 4
	schedules := []struct {
		n   int
		ops []SchedOp
	}{{5, batchTestSchedule()}, {1, batchTestSchedule1()}}
	for _, sc := range schedules {
		for _, simd := range simdModes() {
			for _, L := range []int{1, 2, 3, 8} {
				for base := int64(1); base <= 6; base++ {
					counts := make([]int, L)
					refs := make([]*Trajectory, L)
					lanes := make([]*Trajectory, L)
					for l := 0; l < L; l++ {
						counts[l] = shots + int(base%2)*(l%3)
						seed := base*100 + int64(l)
						refs[l] = randomTrajectory(sc.n, seed)
						lanes[l] = randomTrajectory(sc.n, seed)
					}

					refOut := make([][]int, L)
					for l := 0; l < L; l++ {
						ll := l
						carry, carryQ := PopCarry{}, -1
						for shot := 0; shot < counts[l]; shot++ {
							carry, carryQ = refs[l].RunSchedule(sc.ops, carry, carryQ, func(q, outcome int) {
								refOut[ll] = append(refOut[ll], outcome)
							})
						}
					}
					batchOut := make([][]int, L)
					withSIMD(simd, func() { runLanesLikeReplay(lanes, counts, sc.ops, batchOut) })

					for l := 0; l < L; l++ {
						ctx := fmt.Sprintf("n=%d simd=%v L=%d base=%d lane=%d", sc.n, simd, L, base, l)
						if len(refOut[l]) != len(batchOut[l]) {
							t.Fatalf("%s: outcome counts differ: %d vs %d", ctx, len(refOut[l]), len(batchOut[l]))
						}
						for i := range refOut[l] {
							if refOut[l][i] != batchOut[l][i] {
								t.Fatalf("%s: outcome %d differs: %d vs %d", ctx, i, refOut[l][i], batchOut[l][i])
							}
						}
						samePsi(t, refs[l], lanes[l], ctx)
						sameRNG(t, refs[l], lanes[l], ctx)
					}
				}
			}
		}
	}
}

// fixedSource is a PRNG source returning a scripted Int63 stream —
// the lever that forces rand.Float64 to exact chosen values, which is
// the only way to reach the degenerate (p < 1e-15) measurement branch
// deterministically.
type fixedSource struct {
	vals []int64
	i    int
}

func (s *fixedSource) Int63() int64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func (s *fixedSource) Seed(int64) {}

// TestMeasureBatchDegenerateMatchesScalar pins the degenerate
// projection: a lane whose drawn outcome has probability below 1e-15
// must reset to the outcome's basis state exactly as the scalar path
// (Reset + conditional PauliX) does — alongside a non-degenerate lane
// sharing the batch, in both the carrying and non-carrying forms.
func TestMeasureBatchDegenerateMatchesScalar(t *testing.T) {
	const n = 3
	const q = 1
	// Float64() = Int63()/2^63; 2^63-1024 is the largest Int63 value that
	// does not round up to 1.0 (which Float64 rejects and redraws),
	// yielding exactly 1-2^-53 — the largest float64 below 1.
	almostOne := int64(math.MaxInt64) - 1023
	cases := []struct {
		name string
		vals []int64 // scripted draws for the degenerate lane
		prep func(*Trajectory)
	}{
		{
			// p1 = 1 - O(1e-16): the draw lands above it, outcome 0 with
			// p0 < 1e-15 → degenerate reset to |0…0⟩.
			name: "outcome0",
			vals: []int64{almostOne},
			prep: func(tr *Trajectory) {
				for i := range tr.Psi {
					tr.Psi[i] = 0
				}
				a := math.Sqrt(1 - 1e-16)
				tr.Psi[1<<(n-1-q)] = complex(a, 0)
				tr.Psi[0] = complex(math.Sqrt(1-a*a), 0)
			},
		},
		{
			// p1 = 1e-18 > 0 with a zero draw: outcome 1 with p1 < 1e-15 →
			// degenerate reset to |0…0⟩ then X → the outcome-1 basis state.
			name: "outcome1",
			vals: []int64{0},
			prep: func(tr *Trajectory) {
				for i := range tr.Psi {
					tr.Psi[i] = 0
				}
				tr.Psi[0] = 1
				tr.Psi[1<<(n-1-q)] = 1e-9
			},
		},
	}
	for _, wantCarry := range []bool{false, true} {
		carryFor := int16(-1)
		if wantCarry {
			carryFor = q
		}
		ops := []SchedOp{{Kind: SchedMeasure, Q: q, CarryFor: carryFor}}
		for _, c := range cases {
			mk := func() []*Trajectory {
				deg := NewTrajectory(n, rand.New(&fixedSource{vals: c.vals}))
				c.prep(deg)
				return []*Trajectory{randomTrajectory(n, 77), deg}
			}
			refs, lanes := mk(), mk()
			var refOut, batchOut []int
			for l, r := range refs {
				ll := l
				r.RunSchedule(ops, PopCarry{}, -1, func(q, outcome int) {
					refOut = append(refOut, ll<<4|outcome)
				})
			}
			b := NewTrajBatch(lanes)
			b.RunScheduleBatch(ops, func(lane, q, outcome int) {
				batchOut = append(batchOut, lane<<4|outcome)
			})
			b.Scatter()
			ctx := fmt.Sprintf("%s wantCarry=%v", c.name, wantCarry)
			if len(refOut) != len(batchOut) {
				t.Fatalf("%s: outcome counts differ", ctx)
			}
			for i := range refOut {
				if refOut[i] != batchOut[i] {
					t.Fatalf("%s: outcome record %d differs: %x vs %x", ctx, i, refOut[i], batchOut[i])
				}
			}
			// The degenerate lane must land on an exact basis state: the
			// reset writes +0 everywhere and 1+0i at the outcome index.
			degOutcome := batchOut[1] & 1
			wantIdx := 0
			if degOutcome == 1 {
				wantIdx = 1 << (n - 1 - q)
			}
			for i, a := range lanes[1].Psi {
				want := complex128(0)
				if i == wantIdx {
					want = 1
				}
				if a != want {
					t.Fatalf("%s: degenerate lane Psi[%d] = %v, want %v", ctx, i, a, want)
				}
			}
			for l := range refs {
				samePsi(t, refs[l], lanes[l], fmt.Sprintf("%s lane=%d", ctx, l))
			}
		}
	}
}

// TestNewTrajBatchRejectsMismatchedLanes pins the constructor's
// self-checks: no lanes, or lanes of different register sizes, are
// programming errors.
func TestNewTrajBatchRejectsMismatchedLanes(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("empty", func() { NewTrajBatch(nil) })
	expectPanic("mismatched", func() {
		NewTrajBatch([]*Trajectory{randomTrajectory(2, 1), randomTrajectory(3, 1)})
	})
}

// TestRunScheduleBatchDoesNotAllocate pins the steady-state allocation
// discipline: after construction, a batched shot performs no heap
// allocations at any lane width (the scratch vectors are preallocated;
// divergent lanes reuse the single scratch register).
func TestRunScheduleBatchDoesNotAllocate(t *testing.T) {
	schedules := []struct {
		n   int
		ops []SchedOp
	}{{5, batchTestSchedule()}, {1, batchTestSchedule1()}}
	for _, sc := range schedules {
		for _, L := range []int{1, 4} {
			lanes := make([]*Trajectory, L)
			for l := range lanes {
				lanes[l] = randomTrajectory(sc.n, int64(l+1))
			}
			b := NewTrajBatch(lanes)
			measure := func(lane, q, outcome int) {}
			allocs := testing.AllocsPerRun(100, func() {
				b.RunScheduleBatch(sc.ops, measure)
			})
			if allocs != 0 {
				t.Fatalf("n=%d L=%d: RunScheduleBatch allocates %v times per shot, want 0", sc.n, L, allocs)
			}
		}
	}
}

// TestSpanAntiAccBlocksKernels locks the SIMD bodies of the batched
// anti pass to the pure-Go reference: for every even lane count
// (including the L=8 register-resident ZMM specialization when the
// host has it) and every qubit-mask period, random amplitudes and a
// random anti-lane subset must produce identical span bytes and
// identical accumulator slots for the anti lanes. Kept lanes'
// accumulator slots are unspecified and not compared.
func TestSpanAntiAccBlocksKernels(t *testing.T) {
	if !useSIMD {
		t.Skip("no SIMD on this host")
	}
	rng := rand.New(rand.NewSource(41))
	for _, L := range []int{2, 4, 8, 16} {
		for _, nq := range []int{1, 3, 5} {
			dim := 1 << nq
			for mask := 1; mask < dim; mask <<= 1 {
				span := make([]complex128, dim*L)
				for i := range span {
					span[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				ref := append([]complex128(nil), span...)
				cr01 := make([]float64, 2*L)
				ci01 := make([]float64, 2*L)
				cr10 := make([]float64, 2*L)
				ci10 := make([]float64, 2*L)
				kp := make([]uint64, 2*L)
				aA := make([]float64, 2*L)
				aB := make([]float64, 2*L)
				refA := make([]float64, 2*L)
				refB := make([]float64, 2*L)
				antiLane := make([]bool, L)
				for l := 0; l < L; l++ {
					if rng.Intn(2) == 0 {
						antiLane[l] = true
						cr01[2*l], cr01[2*l+1] = rng.NormFloat64(), 0
						cr01[2*l+1] = cr01[2*l]
						ci01[2*l], ci01[2*l+1] = rng.NormFloat64(), 0
						ci01[2*l+1] = ci01[2*l]
						cr10[2*l], cr10[2*l+1] = rng.NormFloat64(), 0
						cr10[2*l+1] = cr10[2*l]
						ci10[2*l], ci10[2*l+1] = rng.NormFloat64(), 0
						ci10[2*l+1] = ci10[2*l]
					} else {
						kp[2*l], kp[2*l+1] = ^uint64(0), ^uint64(0)
					}
				}
				withSIMD(false, func() {
					spanAntiAccBlocks(ref, cr01, ci01, cr10, ci10, kp, refA, refB, mask*L)
				})
				spanAntiAccBlocks(span, cr01, ci01, cr10, ci10, kp, aA, aB, mask*L)
				for i := range span {
					if span[i] != ref[i] {
						t.Fatalf("L=%d nq=%d mask=%d: span[%d] = %v, reference %v", L, nq, mask, i, span[i], ref[i])
					}
				}
				for l := 0; l < L; l++ {
					if antiLane[l] && (aA[2*l] != refA[2*l] || aB[2*l] != refB[2*l]) {
						t.Fatalf("L=%d nq=%d mask=%d lane %d: acc (%v,%v), reference (%v,%v)",
							L, nq, mask, l, aA[2*l], aB[2*l], refA[2*l], refB[2*l])
					}
				}
			}
		}
	}
}
