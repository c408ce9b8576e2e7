package qphys

// Per-lane bit-identity pins for the lockstep batched executor: every
// lane of a TrajBatch must produce exactly the amplitudes, measurement
// outcomes, carries, and PRNG stream position that running the same
// compiled schedule on that lane's scalar Trajectory would. The suite
// drives the same representative schedule as the scalar executor's
// pins (channels with fast and slow paths, anti-diagonal jumps,
// rotating-frame unitaries with carry chains, CZ, measurements with
// and without carries) and compares under ==, plus targeted pins for
// the degenerate measurement reset, for steps whose lanes take
// different branches, and for the zero-allocation steady state. A
// one-qubit schedule covers the lane kernel (batch1.go) the same way.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"quma/internal/prng"
)

// batchTestSchedule is the representative compiled schedule the batch
// pins run: every op kind, carry chains (including the circular wrap),
// a channel whose first operator is a jump (no first-operator fast
// path), and measures both carrying and not.
func batchTestSchedule() []SchedOp {
	chans := testChannels()
	deco := func(name string) *ChannelTable { return NewChannelTable(chans[name]) }
	x180 := REquator(0, math.Pi)
	return []SchedOp{
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-huge"), CarryFor: -1},
		{Kind: SchedApply1RD, Q: 0, U: x180, CarryFor: 0},
		{Kind: SchedChannel, Q: 0, Ch: deco("decoherence-short"), CarryFor: 1},
		{Kind: SchedChannel, Q: 1, Ch: deco("decoherence-short"), CarryFor: 4},
		{Kind: SchedCZ, Q: 1, Qb: 0, U: CZ()},
		{Kind: SchedChannel, Q: 4, Ch: deco("decoherence-long"), CarryFor: -1},
		{Kind: SchedApply1, Q: 2, U: RZ(0.4).Mul(RX(0.3)), CarryFor: 2},
		{Kind: SchedChannel, Q: 2, Ch: deco("depolarizing"), CarryFor: 3},
		{Kind: SchedMeasure, Q: 3, CarryFor: 3},
		{Kind: SchedChannel, Q: 3, Ch: deco("decoherence-short"), CarryFor: -1},
		{Kind: SchedApply1, Q: 2, U: Hadamard(), CarryFor: -1},
		{Kind: SchedChannel, Q: 1, Ch: deco("damping-jump-first"), CarryFor: 1},
		{Kind: SchedMeasure, Q: 1, CarryFor: -1},
		{Kind: SchedChannel, Q: 2, Ch: deco("decoherence-long"), CarryFor: 0},
	}
}

// batchTestSchedule1 is the one-qubit counterpart of
// batchTestSchedule, for the lane kernel: fast and jumping channels,
// a jump-first channel, both unitary kinds with and without carries,
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
		{Kind: SchedChannel, Q: 0, Ch: deco("damping-jump-first"), CarryFor: 0},
		{Kind: SchedMeasure, Q: 0, CarryFor: -1},
		{Kind: SchedChannel, Q: 0, Ch: deco("damping"), CarryFor: 0},
	}
}

// simdMode names one tier of span-kernel bodies: the pure-Go bodies,
// the AVX2 bodies alone, or every SIMD body the host has (AVX-512 and
// the 8-lane specializations included).
type simdMode int

const (
	simdOff simdMode = iota
	simdAVX2
	simdFull
)

func (m simdMode) String() string {
	return [...]string{"off", "avx2", "full"}[m]
}

// simdModes lists every tier the host can run, widest first. An
// AVX-512 host lists AVX2 separately, because there the wrappers send
// most lane counts to the AVX-512 bodies and the AVX2 bodies that
// AVX2-only CPUs run would otherwise go untested.
func simdModes() []simdMode {
	switch {
	case useSIMD512:
		return []simdMode{simdFull, simdAVX2, simdOff}
	case useSIMD:
		return []simdMode{simdAVX2, simdOff}
	}
	return []simdMode{simdOff}
}

// withSIMD runs f with the span kernels limited to tier m. It only
// narrows: a tier the host lacks stays off.
func withSIMD(m simdMode, f func()) {
	simd512, simd := useSIMD512, useSIMD
	defer func() { useSIMD512, useSIMD = simd512, simd }()
	useSIMD512 = simd512 && m == simdFull
	useSIMD = simd && m != simdOff
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
// for every lane width 1–8 and 16 (odd widths take the Go bodies, 8 the
// 8-lane ZMM bodies), at five qubits (span passes) and one (lane
// kernel), under every span-kernel tier the host has, each lane of the
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
			for _, L := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
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
						ctx := fmt.Sprintf("n=%d simd=%s L=%d base=%d lane=%d", sc.n, simd, L, base, l)
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
	// yielding exactly 1-2^-53 — the largest float64 below 1. SetNext
	// forces the degenerate lane's draw, the only way to reach the branch
	// deterministically.
	almostOne := uint64(math.MaxInt64) - 1023
	cases := []struct {
		name string
		next uint64 // the degenerate lane's scripted draw
		prep func(*Trajectory)
	}{
		{
			// p1 = 1 - O(1e-16): the draw lands above it, outcome 0 with
			// p0 < 1e-15 → degenerate reset to |0…0⟩.
			name: "outcome0",
			next: almostOne,
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
			next: 0,
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
				src := prng.New(1)
				src.SetNext(c.next)
				deg := NewTrajectorySource(n, src)
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

// TestBatchStepsMixLaneClasses pins the channel and measurement steps
// when the lanes of one step take different branches: a channel step
// whose lanes mix a none selection (a zero-norm register, on which no
// operator has positive weight), an anti-diagonal jump (a scripted draw
// just below 1) and diagonal selections, then a measurement of the
// channel's carry target (q itself when there is none) whose lanes mix
// degenerate projections (p < 1e-15, a scripted zero draw) with
// ordinary ones, then a channel that consumes the measurement's carry.
// Every carry form (same-qubit, cross-qubit, none), lane width and
// span-kernel tier is run; each lane must track its scalar twin bit for
// bit, and the test checks that each scripted branch was taken. When
// the channel carries, every lane — anti and none lanes included — must
// leave it with a valid carry bit-equal to a fresh population pass of
// its own column, so the measurement runs no pass of its own.
func TestBatchStepsMixLaneClasses(t *testing.T) {
	const n, q, qx = 3, 1, 0 // qx: the cross-qubit carry target
	const (
		roleNone       = iota // zero-norm register
		roleAnti              // channel draw 1-2^-53: the damping jump
		roleDiag              // random state, unscripted draws
		roleDegenerate        // p1 ≈ 1e-18 on q and qx, a zero measurement draw
		roles
	)
	damping := NewChannelTable(testChannels()["damping"])
	almostOne := uint64(math.MaxInt64) - 1023
	prep := func(role int, seed int64) *Trajectory {
		tr := randomTrajectory(n, seed)
		switch role {
		case roleNone, roleDegenerate:
			for i := range tr.Psi {
				tr.Psi[i] = 0
			}
			if role == roleDegenerate {
				tr.Psi[0] = 1
				tr.Psi[1<<(n-1-q)|1<<(n-1-qx)] = 1e-9
			}
		case roleAnti:
			tr.src.SetNext(almostOne)
		}
		return tr
	}
	// pops is a fresh population pass of qubit k over psi.
	pops := func(psi []complex128, k int) (p0, p1 float64) {
		mask := 1 << (n - 1 - k)
		for i, a := range psi {
			if i&mask == 0 {
				p0 += real(a)*real(a) + imag(a)*imag(a)
			} else {
				p1 += real(a)*real(a) + imag(a)*imag(a)
			}
		}
		return p0, p1
	}
	// roleOf prices tr's next draw for the channel step without
	// consuming it (the source is copied) and names the branch.
	roleOf := func(tr *Trajectory) int {
		src := *tr.src
		p0, p1 := pops(tr.Psi, q)
		switch chosen, _ := priceChannel(damping, p0, p1, src.Float64()); {
		case chosen == chanChoseNone:
			return roleNone
		case damping.kind[chosen] == chanAnti:
			return roleAnti
		}
		return roleDiag
	}
	for _, simd := range simdModes() {
		for _, L := range []int{3, 4, 5, 8, 16} {
			for _, chCarry := range []int16{-1, q, qx} {
				mq := int16(q)
				if chCarry >= 0 {
					mq = chCarry
				}
				for _, msCarry := range []int16{-1, mq} {
					steps := [][]SchedOp{
						{{Kind: SchedChannel, Q: q, Ch: damping, CarryFor: chCarry}},
						{{Kind: SchedMeasure, Q: mq, CarryFor: msCarry}},
						{{Kind: SchedChannel, Q: mq, Ch: damping, CarryFor: -1}},
					}
					refs := make([]*Trajectory, L)
					lanes := make([]*Trajectory, L)
					for l := range lanes {
						refs[l] = prep(l%roles, int64(50+l))
						lanes[l] = prep(l%roles, int64(50+l))
					}
					ctx := fmt.Sprintf("simd=%s L=%d channel carry=%d measure carry=%d", simd, L, chCarry, msCarry)
					for l, r := range refs {
						want := l % roles
						switch want {
						case roleDiag:
							continue // unscripted draw
						case roleDegenerate:
							want = roleDiag
						}
						if got := roleOf(r); got != want {
							t.Fatalf("%s lane %d: channel branch %d, want %d", ctx, l, got, want)
						}
					}

					var refOut, batchOut []int
					carries := make([]PopCarry, L)
					carryQs := make([]int, L)
					for l := range carryQs {
						carryQs[l] = -1
					}
					b := NewTrajBatch(lanes)
					for s, ops := range steps {
						if s == 1 {
							for l := range lanes {
								if l%roles == roleDegenerate {
									refs[l].src.SetNext(0)
									lanes[l].src.SetNext(0)
								}
							}
						}
						for l, r := range refs {
							ll := l
							carries[l], carryQs[l] = r.RunSchedule(ops, carries[l], carryQs[l], func(_, outcome int) {
								refOut = append(refOut, ll<<4|outcome)
							})
						}
						withSIMD(simd, func() {
							b.RunScheduleBatch(ops, func(lane, _, outcome int) {
								batchOut = append(batchOut, lane<<4|outcome)
							})
						})
						switch {
						case s == 0 && chCarry >= 0:
							if b.carryMissing(int(mq)) {
								t.Fatalf("%s: a lane left the channel without a carry", ctx)
							}
							b.Scatter()
							for l := range lanes {
								p0, p1 := pops(lanes[l].Psi, int(chCarry))
								if c := b.carry[l]; !sameFloatBits(c.P0, p0) || !sameFloatBits(c.P1, p1) {
									t.Fatalf("%s lane %d: carry (%v, %v), fresh pass (%v, %v)", ctx, l, c.P0, c.P1, p0, p1)
								}
							}
						case s == 1:
							// measureBatch marks a degenerate projection with a
							// zero collapse scale.
							for l := range lanes {
								if deg := b.r0[2*l] == 0; deg != (l%roles == roleDegenerate) {
									t.Fatalf("%s lane %d: degenerate projection %v", ctx, l, deg)
								}
							}
						}
					}
					b.Scatter()
					if !slices.Equal(refOut, batchOut) {
						t.Fatalf("%s: outcome records %x, scalar %x", ctx, batchOut, refOut)
					}
					for l := range lanes {
						samePsi(t, refs[l], lanes[l], fmt.Sprintf("%s lane=%d", ctx, l))
						sameRNG(t, refs[l], lanes[l], fmt.Sprintf("%s lane=%d", ctx, l))
					}
				}
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
// the one-qubit lane kernel's divergent lanes reuse its single scratch
// register).
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
