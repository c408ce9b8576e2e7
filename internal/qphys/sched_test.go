package qphys

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRunSchedule1MatchesRunScheduleN pins RunSchedule's register-
// resident one-qubit body (runSchedule1) to the general kernel-call body
// (runScheduleN) on one-qubit registers, bit for bit: post-shot Psi
// bits (the sign of zeros included), the returned carry and carry
// target, every outcome, and the generator's next draw — over carries
// threaded across several shots.
func TestRunSchedule1MatchesRunScheduleN(t *testing.T) {
	chans := testChannels()
	deco := func(name string) *ChannelTable { return NewChannelTable(chans[name]) }
	// almostOne as a forced draw is exactly 1-2^-53 (see
	// TestMeasureBatchDegenerateMatchesScalar): it prices past every
	// first operator, so the channel takes its last positive-weight
	// operator and a measurement reads outcome 0 whenever p1 < 1.
	almostOne := uint64(math.MaxInt64) - 1023
	set := func(amps ...complex128) func(*Trajectory) {
		return func(tr *Trajectory) { copy(tr.Psi, amps) }
	}
	plus := complex(1/math.Sqrt2, 0)
	damping := NewChannelTable(AmplitudeDamping(0.3))
	dampAll := NewChannelTable(AmplitudeDamping(1))
	dephasing := NewChannelTable(PhaseDamping(0.4))
	detuned := RZ(0.4).Mul(RX(0.3))
	type scripted struct {
		name string
		prep func(*Trajectory)
		next *uint64 // forced first draw of the shot, if any
		ops  []SchedOp
	}
	var cases []scripted
	for _, cf := range []int16{0, -1} {
		cases = append(cases,
			scripted{"anti jump", set(0, 1), &almostOne, []SchedOp{{Kind: SchedChannel, Ch: damping, CarryFor: cf}}},
			scripted{"anti jump, zero-weight first operator", set(0, 1), nil, []SchedOp{{Kind: SchedChannel, Ch: dampAll, CarryFor: cf}}},
			scripted{"dephasing jump", set(plus, plus), &almostOne, []SchedOp{{Kind: SchedChannel, Ch: dephasing, CarryFor: cf}}},
			scripted{"zero-weight draw", set(0, 0), nil, []SchedOp{{Kind: SchedChannel, Ch: damping, CarryFor: cf}}},
			scripted{"fast path", set(plus, plus), new(uint64), []SchedOp{{Kind: SchedChannel, Ch: deco("decoherence-long"), CarryFor: cf}}},
			scripted{"Apply1RD", set(plus, complex(0, 0.5)), nil, []SchedOp{{Kind: SchedApply1RD, U: REquator(0.7, math.Pi/2), CarryFor: cf}}},
			scripted{"Apply1 detuned", set(plus, complex(0, 0.5)), nil, []SchedOp{{Kind: SchedApply1, U: detuned, CarryFor: cf}}},
			scripted{"measure", set(plus, plus), nil, []SchedOp{{Kind: SchedMeasure, CarryFor: cf}}},
			// p1 = 1 - O(1e-16) and a draw above it: outcome 0 with
			// p0 < 1e-15, the degenerate reset.
			scripted{"degenerate measure 0", set(complex(1e-8, 0), complex(math.Sqrt(1-1e-16), 0)), &almostOne,
				[]SchedOp{{Kind: SchedMeasure, CarryFor: cf}}},
			// p1 = 1e-18 and a zero draw: outcome 1 with p1 < 1e-15.
			scripted{"degenerate measure 1", set(1, 1e-9), new(uint64), []SchedOp{{Kind: SchedMeasure, CarryFor: cf}}},
		)
	}
	cases = append(cases, scripted{"lane-kernel schedule", nil, nil, batchTestSchedule1()})

	// Random schedules over every one-qubit step the compiler emits.
	menu := []SchedOp{
		{Kind: SchedApply1RD, U: REquator(0, math.Pi)},
		{Kind: SchedApply1RD, U: REquator(math.Pi/2, math.Pi/2)},
		{Kind: SchedApply1, U: detuned},
		{Kind: SchedApply1, U: Hadamard()},
		{Kind: SchedMeasure},
		{Kind: SchedChannel, Ch: damping},
		{Kind: SchedChannel, Ch: dephasing},
	}
	names := make([]string, 0, len(chans))
	for name := range chans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		menu = append(menu, SchedOp{Kind: SchedChannel, Ch: deco(name)})
	}
	gen := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		ops := make([]SchedOp, 1+gen.Intn(24))
		for j := range ops {
			ops[j] = menu[gen.Intn(len(menu))]
			ops[j].CarryFor = int16(gen.Intn(2) - 1)
		}
		cases = append(cases, scripted{fmt.Sprintf("random %d", i), nil, nil, ops})
	}

	// Each case runs from a fresh random state with no carry, from a
	// basis state handed a valid carry for qubit 0, and from a random
	// state handed a carry for another target, which must be ignored.
	for ci, c := range cases {
		for start := 0; start < 3; start++ {
			seed := int64(ci*3 + start + 1)
			mk := func() *Trajectory {
				tr := randomTrajectory(1, seed)
				if start == 1 {
					set(0, 1)(tr)
				}
				if c.prep != nil {
					c.prep(tr)
				}
				return tr
			}
			in, inQ := PopCarry{}, -1
			switch start {
			case 1:
				in, inQ = PopCarry{P0: 0, P1: 1, Valid: true}, 0
			case 2:
				in, inQ = PopCarry{P0: 0.25, P1: 0.75, Valid: true}, 1
			}
			ref, got := mk(), mk()
			refIn, refQ, gotIn, gotQ := in, inQ, in, inQ
			var refOut, gotOut []int
			for shot := 0; shot < 3; shot++ {
				ctx := fmt.Sprintf("%s start=%d shot=%d", c.name, start, shot)
				if c.next != nil {
					ref.src.SetNext(*c.next)
					got.src.SetNext(*c.next)
				}
				refIn, refQ = ref.runScheduleN(c.ops, refIn, refQ, func(q, o int) { refOut = append(refOut, q<<4|o) })
				gotIn, gotQ = got.RunSchedule(c.ops, gotIn, gotQ, func(q, o int) { gotOut = append(gotOut, q<<4|o) })
				sameBits(t, ref.Psi, got.Psi, ctx)
				if refQ != gotQ || refIn.Valid != gotIn.Valid ||
					math.Float64bits(refIn.P0) != math.Float64bits(gotIn.P0) ||
					math.Float64bits(refIn.P1) != math.Float64bits(gotIn.P1) {
					t.Fatalf("%s: carry %+v→%d, want %+v→%d", ctx, gotIn, gotQ, refIn, refQ)
				}
				if fmt.Sprint(refOut) != fmt.Sprint(gotOut) {
					t.Fatalf("%s: outcomes %v, want %v", ctx, gotOut, refOut)
				}
			}
			sameRNG(t, ref, got, c.name)
		}
	}
}

// sameBits compares two amplitude slices bit for bit, so a differing
// sign of zero fails too.
func sameBits(t *testing.T, want, got []complex128, context string) {
	t.Helper()
	for i := range want {
		w, g := want[i], got[i]
		if math.Float64bits(real(w)) != math.Float64bits(real(g)) || math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
			t.Fatalf("%s: amplitude %d is %v, want %v", context, i, g, w)
		}
	}
}
