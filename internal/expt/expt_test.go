package expt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/isa"
	"quma/internal/qphys"
)

func TestAllXYPairsStructure(t *testing.T) {
	pairs := AllXYPairs()
	if len(pairs) != 21 {
		t.Fatalf("got %d pairs, want 21", len(pairs))
	}
	zeros, halves, ones := 0, 0, 0
	for _, p := range pairs {
		switch p.Ideal {
		case 0:
			zeros++
		case 0.5:
			halves++
		case 1:
			ones++
		default:
			t.Errorf("pair %s has ideal %v", p.Label, p.Ideal)
		}
	}
	if zeros != 5 || halves != 12 || ones != 4 {
		t.Errorf("staircase counts %d/%d/%d, want 5/12/4", zeros, halves, ones)
	}
	if pairs[0].Label != "II" || pairs[17].Label != "XI" || pairs[20].Label != "yy" {
		t.Error("Fig. 9 label order broken")
	}
}

func TestAllXYProgramShape(t *testing.T) {
	p := DefaultAllXYParams()
	src := AllXYProgram(p)
	if got := strings.Count(src, "MPG"); got != 42 {
		t.Errorf("program has %d MPG instructions, want 42", got)
	}
	if got := strings.Count(src, "Pulse"); got != 84 {
		t.Errorf("program has %d Pulse instructions, want 84", got)
	}
	if !strings.Contains(src, "QNopReg r15") || !strings.Contains(src, "bne r1, r2, Outer_Loop") {
		t.Error("program missing Algorithm 3 control structure")
	}
}

func TestAllXYCalibratedStaircase(t *testing.T) {
	// E1 / Figure 9: with calibrated pulses the rescaled fidelities
	// reproduce the 0 / ½ / 1 staircase with small deviation.
	cfg := core.DefaultConfig()
	p := DefaultAllXYParams()
	p.Rounds = 120
	res, err := NewEnv().RunAllXY(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fidelities) != 42 {
		t.Fatalf("got %d points, want 42", len(res.Fidelities))
	}
	if res.Deviation > 0.08 {
		t.Errorf("deviation = %v, want < 0.08\n%s", res.Deviation, res.Staircase())
	}
	// Per-level sanity.
	for i, f := range res.Fidelities {
		ideal := res.Ideal[i]
		if math.Abs(f-ideal) > 0.2 {
			t.Errorf("point %d: F=%v, ideal %v", i, f, ideal)
		}
	}
	if res.MemoryBytes != 420 {
		t.Errorf("memory = %d, want 420", res.MemoryBytes)
	}
	// 2 pulses per measurement × 42 × rounds.
	if res.PulsesPlayed != uint64(84*p.Rounds) {
		t.Errorf("pulses = %d, want %d", res.PulsesPlayed, 84*p.Rounds)
	}
}

func TestAllXYAmplitudeErrorSignature(t *testing.T) {
	// A -10% amplitude miscalibration must show the classic AllXY
	// signature: deviation well above the calibrated case, with the
	// π-pulse pairs (indices 1–4: XX, YY, XY, YX) pulled up from 0.
	cfg := core.DefaultConfig()
	cfg.AmplitudeError = -0.10
	p := DefaultAllXYParams()
	p.Rounds = 120
	res, err := NewEnv().RunAllXY(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deviation < 0.03 {
		t.Errorf("amplitude error produced deviation %v, expected a visible signature", res.Deviation)
	}
	// XX combination (two under-rotated π pulses) leaves residual
	// population: 2×0.9π rotation → P(1) = sin²(0.1π)... ≈ 0.095 above 0.
	xx := (res.Fidelities[2] + res.Fidelities[3]) / 2
	if xx < 0.03 {
		t.Errorf("XX fidelity %v shows no under-rotation signature", xx)
	}
}

func TestAllXYDetuningSignature(t *testing.T) {
	// Frequency detuning leaves the π-pairs mostly alone but tilts the
	// equator combinations — overall deviation must grow.
	cfg := core.DefaultConfig()
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 150e3
	cfg.Qubit = []qphys.QubitParams{qp}
	p := DefaultAllXYParams()
	p.Rounds = 120
	res, err := NewEnv().RunAllXY(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deviation < 0.02 {
		t.Errorf("detuning produced deviation %v, expected a visible signature", res.Deviation)
	}
}

func TestAllXYUndoubled(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultAllXYParams()
	p.Doubled = false
	p.Rounds = 60
	res, err := NewEnv().RunAllXY(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fidelities) != 21 {
		t.Errorf("got %d points, want 21", len(res.Fidelities))
	}
}

func TestAllXYRejectsBadParams(t *testing.T) {
	if _, err := NewEnv().RunAllXY(context.Background(), core.DefaultConfig(), AllXYParams{Rounds: 0}); err == nil {
		t.Error("Rounds=0 must fail")
	}
}

func TestCliffordGroupComplete(t *testing.T) {
	g := CliffordGroup()
	if len(g) != 24 {
		t.Fatalf("group has %d elements", len(g))
	}
	// All distinct up to phase, all unitary, identity present.
	for i, a := range g {
		if !a.U.IsUnitary(1e-9) {
			t.Errorf("element %d not unitary", i)
		}
		for j := i + 1; j < len(g); j++ {
			if a.U.EqualUpToGlobalPhase(g[j].U, 1e-9) {
				t.Errorf("elements %d and %d coincide", i, j)
			}
		}
	}
	if !g[0].U.EqualUpToGlobalPhase(qphys.Identity(2), 1e-9) {
		t.Error("element 0 must be the identity")
	}
	if g[0].Pulses[0] != "I" {
		t.Error("identity must decompose to the I pulse")
	}
}

func TestCliffordClosure(t *testing.T) {
	// The product of any two elements is again in the group.
	g := CliffordGroup()
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 50; k++ {
		a := g[rng.Intn(24)]
		b := g[rng.Intn(24)]
		prod := a.U.Mul(b.U)
		found := false
		for _, c := range g {
			if c.U.EqualUpToGlobalPhase(prod, 1e-9) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("product of %d and %d not in group", a.Index, b.Index)
		}
	}
}

func TestCliffordDecompositionsMatchUnitaries(t *testing.T) {
	for _, c := range CliffordGroup() {
		u := qphys.Identity(2)
		for _, p := range c.Pulses {
			u = primitiveGate(p).Mul(u)
		}
		if !u.EqualUpToGlobalPhase(c.U, 1e-9) {
			t.Errorf("element %d: pulse decomposition %v does not reproduce unitary", c.Index, c.Pulses)
		}
		if len(c.Pulses) > 3 {
			t.Errorf("element %d needs %d pulses; BFS should find ≤3", c.Index, len(c.Pulses))
		}
	}
}

// TestInverseClifford pins the group's inverse table to U† and its
// multiplication table to the matrix product, both up to global phase.
func TestInverseClifford(t *testing.T) {
	g := CliffordGroup()
	for _, c := range g {
		inv := g[cliffordInv[c.Index]]
		if !inv.U.EqualUpToGlobalPhase(c.U.Dagger(), 1e-9) || !inv.U.Mul(c.U).EqualUpToGlobalPhase(qphys.Identity(2), 1e-9) {
			t.Errorf("inverse of %d wrong", c.Index)
		}
		for _, b := range g {
			if !g[cliffordMul[c.Index][b.Index]].U.EqualUpToGlobalPhase(c.U.Mul(b.U), 1e-9) {
				t.Errorf("product %d·%d wrong", c.Index, b.Index)
			}
		}
	}
}

// randomCliffordSequenceByMatrix is RandomCliffordSequence as it was
// first written — the running product as a 2×2 matrix, the recovery
// found by searching the group for its adjoint — kept as the reference
// for the table-driven version.
func randomCliffordSequenceByMatrix(m int, rng *rand.Rand) (pulses []string, elements []Clifford) {
	group := CliffordGroup()
	total := qphys.Identity(2)
	for i := 0; i < m; i++ {
		c := group[rng.Intn(len(group))]
		elements = append(elements, c)
		pulses = append(pulses, c.Pulses...)
		total = c.U.Mul(total)
	}
	inv := total.Dagger()
	for _, rec := range group {
		if rec.U.EqualUpToGlobalPhase(inv, 1e-9) {
			elements = append(elements, rec)
			pulses = append(pulses, rec.Pulses...)
			return pulses, elements
		}
	}
	panic("product is not a Clifford")
}

// TestRandomCliffordSequenceMatchesMatrixProduct pins the table-driven
// sequence generator to the matrix-product reference: the same pulses
// and the same elements, for many seeds and lengths up to the service's
// RB length limit (4096).
func TestRandomCliffordSequenceMatchesMatrixProduct(t *testing.T) {
	for _, m := range []int{0, 1, 2, 3, 5, 24, 128, 1000, 4096} {
		seeds := 300
		if m > 128 {
			seeds = 30
		}
		for seed := 0; seed < seeds; seed++ {
			s := DeriveSeed(int64(m), seed)
			wantP, wantE := randomCliffordSequenceByMatrix(m, rand.New(rand.NewSource(s)))
			gotP, gotE := RandomCliffordSequence(m, rand.New(rand.NewSource(s)))
			if !slices.Equal(gotP, wantP) {
				t.Fatalf("m=%d seed=%d: pulses differ from the matrix-product reference", m, seed)
			}
			if len(gotE) != len(wantE) {
				t.Fatalf("m=%d seed=%d: %d elements, want %d", m, seed, len(gotE), len(wantE))
			}
			for i := range wantE {
				if gotE[i].Index != wantE[i].Index || !slices.Equal(gotE[i].Pulses, wantE[i].Pulses) {
					t.Fatalf("m=%d seed=%d: element %d is %d, want %d", m, seed, i, gotE[i].Index, wantE[i].Index)
				}
			}
		}
	}
}

// TestRBSequenceRngMatchesMathRand pins RunRB's pooled sequence
// generator: one generator reseeded per point draws the same Clifford
// sequences as a fresh math/rand generator per point, at the lengths
// and seeds RunRB derives.
func TestRBSequenceRngMatchesMathRand(t *testing.T) {
	rng := rbSeqRngs.Get().(*rand.Rand)
	defer rbSeqRngs.Put(rng)
	for _, m := range []int{0, 1, 8, 128, 4096} {
		for i := 0; i < 40; i++ {
			s := DeriveSeed(int64(m)+17, i)
			want, _ := RandomCliffordSequence(m, rand.New(rand.NewSource(s)))
			rng.Seed(s)
			got, _ := RandomCliffordSequence(m, rng)
			if !slices.Equal(got, want) {
				t.Fatalf("m=%d point %d: pooled generator's sequence differs from math/rand's", m, i)
			}
		}
	}
}

// rbProgramGrid calls f on the RB program inputs the shot-program tests
// share: sequence lengths 0, 1, 7 and 128, qubits 0–2, and init/measure
// cycle pairs from the default to zero, negative and extreme values.
func rbProgramGrid(f func(p RBParams, pulses []string)) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{0, 1, 7, 128} {
		pulses, _ := RandomCliffordSequence(m, rng)
		for q := 0; q <= 2; q++ {
			for _, cycles := range [][2]int{{40000, 300}, {0, 0}, {-1, 7}, {1, math.MaxInt}, {math.MinInt, -300}} {
				p := DefaultRBParams()
				p.Qubit, p.InitCycles, p.MeasureCycles = q, cycles[0], cycles[1]
				f(p, pulses)
			}
		}
	}
}

// TestRBShotProgramMatchesFmt pins RBShotProgram's text to the fmt form
// it replaced, byte for byte.
func TestRBShotProgramMatchesFmt(t *testing.T) {
	byFmt := func(p RBParams, pulses []string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "mov r15, %d\n", p.InitCycles)
		fmt.Fprintf(&b, "QNopReg r15\n")
		for _, g := range pulses {
			fmt.Fprintf(&b, "Pulse {q%d}, %s\nWait 4\n", p.Qubit, g)
		}
		fmt.Fprintf(&b, "MPG {q%d}, %d\n", p.Qubit, p.MeasureCycles)
		fmt.Fprintf(&b, "MD {q%d}, r7\n", p.Qubit)
		fmt.Fprintf(&b, "halt\n")
		return b.String()
	}
	rbProgramGrid(func(p RBParams, pulses []string) {
		if got, want := RBShotProgram(p, pulses), byFmt(p, pulses); got != want {
			t.Fatalf("m=%d q=%d cycles=%d,%d:\n%s\nwant\n%s", len(pulses), p.Qubit, p.InitCycles, p.MeasureCycles, got, want)
		}
	})
}

// TestRBProgramMatchesAssembler pins the program RunRB builds directly
// to the one asm.Assemble makes of RBShotProgram's text: equal
// instruction for instruction, or the same error where the assembler
// rejects the input. Beyond the shared grid it covers qubits outside the
// register file and pulse names the text form would not spell as a
// plain token.
func TestRBProgramMatchesAssembler(t *testing.T) {
	accepted, rejected := 0, 0
	check := func(p RBParams, pulses []string) {
		want, wantErr := asm.Assemble(RBShotProgram(p, pulses))
		if wantErr != nil {
			rejected++
		} else {
			accepted++
		}
		got, err := rbProgram(p, pulses)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("q=%d cycles=%d,%d pulses=%q: error %v, assembler's %v", p.Qubit, p.InitCycles, p.MeasureCycles, pulses, err, wantErr)
			}
		case err != nil:
			t.Fatalf("q=%d cycles=%d,%d pulses=%q: %v, assembler accepts it", p.Qubit, p.InitCycles, p.MeasureCycles, pulses, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("q=%d cycles=%d,%d pulses=%q:\n%+v\nassembler's\n%+v", p.Qubit, p.InitCycles, p.MeasureCycles, pulses, got, want)
		}
	}
	rbProgramGrid(check)
	p := DefaultRBParams()
	for _, q := range []int{-1, isa.MaxQubits - 1, isa.MaxQubits} {
		p.Qubit = q
		check(p, []string{"X90", "Y180"})
	}
	p.Qubit = 1
	for _, g := range []string{"", " X90", "X 90", "X90,", "a:b", "X90#c", "Y90//c", "{q1}", "Xm90\nhalt"} {
		check(p, []string{"X90", g})
	}
	t.Logf("%d inputs assemble, %d are rejected", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatal("the inputs no longer cover both outcomes")
	}
}

func TestRandomCliffordSequenceRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		pulses, elements := RandomCliffordSequence(rng.Intn(20)+1, rng)
		u := qphys.Identity(2)
		for _, p := range pulses {
			u = primitiveGate(p).Mul(u)
		}
		if !u.EqualUpToGlobalPhase(qphys.Identity(2), 1e-9) {
			t.Fatalf("trial %d: sequence of %d elements does not recover identity", trial, len(elements))
		}
	}
}

func TestT1Experiment(t *testing.T) {
	cfg := core.DefaultConfig()
	qp := qphys.DefaultQubitParams() // T1 = 30 µs
	cfg.Qubit = []qphys.QubitParams{qp}
	p := DefaultSweepParams()
	p.Rounds = 600 // cheap now that shots replay; keeps the fit well inside ±15%
	res, err := NewEnv().RunT1(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit.Tau-qp.T1)/qp.T1 > 0.15 {
		t.Errorf("fitted T1 = %v, want %v ±15%%", res.Fit.Tau, qp.T1)
	}
	if res.Excited[0] < 0.9 {
		t.Errorf("initial population %v, want ~1", res.Excited[0])
	}
}

func TestRamseyExperiment(t *testing.T) {
	cfg := core.DefaultConfig()
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 100e3 // artificial detuning → 100 kHz fringes
	cfg.Qubit = []qphys.QubitParams{qp}
	p := DefaultSweepParams()
	// Denser, shorter sweep to resolve the fringes: 0..40 µs in 1 µs
	// steps (200 cycles).
	p.DelaysCycles = nil
	for i := 0; i < 40; i++ {
		p.DelaysCycles = append(p.DelaysCycles, i*200)
	}
	p.Rounds = 150
	res, err := NewEnv().RunRamsey(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fit.Freq-100e3)/100e3 > 0.1 {
		t.Errorf("fringe frequency = %v, want 100 kHz ±10%%", res.Fit.Freq)
	}
	// T2* should be near the configured T2 (20 µs).
	if res.Fit.Tau < 10e-6 || res.Fit.Tau > 40e-6 {
		t.Errorf("fitted T2* = %v, want ≈ 20 µs", res.Fit.Tau)
	}
}

func TestEchoExperiment(t *testing.T) {
	cfg := core.DefaultConfig()
	qp := qphys.DefaultQubitParams()
	qp.FreqDetuningHz = 100e3 // echo refocuses this
	cfg.Qubit = []qphys.QubitParams{qp}
	p := DefaultSweepParams()
	p.Rounds = 150
	res, err := NewEnv().RunEcho(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// The echoed coherence decays with T2 (Markovian dephasing is not
	// refocusable, so tau ≈ T2 here), ending at P≈0.5.
	if res.Fit.Tau < 10e-6 || res.Fit.Tau > 45e-6 {
		t.Errorf("fitted echo tau = %v s", res.Fit.Tau)
	}
	if math.Abs(res.Fit.C-0.5) > 0.15 {
		t.Errorf("echo floor = %v, want ~0.5", res.Fit.C)
	}
	if res.Excited[0] < 0.85 {
		t.Errorf("zero-delay echo population %v, want ~1", res.Excited[0])
	}
}

func TestRBDecayAndErrorRate(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRBParams()
	res, err := NewEnv().RunRB(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit.P <= 0 || res.Fit.P >= 1 {
		t.Fatalf("decay p = %v outside (0,1)", res.Fit.P)
	}
	// Survival must be monotone-ish: first point well above last.
	first, last := res.Survival[0], res.Survival[len(res.Survival)-1]
	if first < 0.8 {
		t.Errorf("m=1 survival %v, want > 0.8", first)
	}
	if last >= first {
		t.Errorf("no decay: survival %v -> %v", first, last)
	}
	if !strings.Contains(res.Table(), "error per Clifford") {
		t.Error("table rendering broken")
	}
}

func TestRBWorseWithMiscalibration(t *testing.T) {
	p := DefaultRBParams()
	p.Lengths = []int{1, 4, 8, 16}
	p.Trials = 3
	p.Rounds = 50

	good, err := NewEnv().RunRB(context.Background(), core.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.DefaultConfig()
	bad.AmplitudeError = -0.05
	worse, err := NewEnv().RunRB(context.Background(), bad, p)
	if err != nil {
		t.Fatal(err)
	}
	if worse.Fit.ErrorPerClifford() <= good.Fit.ErrorPerClifford() {
		t.Errorf("miscalibrated error/Clifford %v not worse than calibrated %v",
			worse.Fit.ErrorPerClifford(), good.Fit.ErrorPerClifford())
	}
}

func TestRBRejectsBadParams(t *testing.T) {
	if _, err := NewEnv().RunRB(context.Background(), core.DefaultConfig(), RBParams{Lengths: []int{1}}); err == nil {
		t.Error("too few lengths must fail")
	}
}
