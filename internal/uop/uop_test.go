package uop

import (
	"math"
	"testing"

	"quma/internal/awg"
	"quma/internal/pulse"
	"quma/internal/qphys"
)

func TestDefineRejectsEmptyAndNonZeroFirstDelta(t *testing.T) {
	u := NewUnit()
	if err := u.Define("bad", nil); err == nil {
		t.Error("empty sequence must be rejected")
	}
	if err := u.Define("bad", Sequence{{Delta: 3, CW: 0}}); err == nil {
		t.Error("non-zero first Δt must be rejected")
	}
}

func TestPrimitivePassThrough(t *testing.T) {
	u := NewUnit()
	u.DefinePrimitive("X180", 1)
	trs, err := u.Expand(nil, "X180", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].CW != 1 || trs[0].At != 100+DefaultDelay {
		t.Errorf("expansion = %+v", trs)
	}
}

func TestExpandUnknown(t *testing.T) {
	u := NewUnit()
	if _, err := u.Expand(nil, "nope", 0); err == nil {
		t.Error("expected error for unknown uOp")
	}
}

func TestSeqZSchedule(t *testing.T) {
	u := NewUnit()
	if err := u.Define("Z", SeqZ()); err != nil {
		t.Fatal(err)
	}
	trs, err := u.Expand(nil, "Z", 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 {
		t.Fatalf("len = %d", len(trs))
	}
	if trs[0].CW != 1 || trs[1].CW != 4 {
		t.Errorf("codewords = %d,%d, want 1,4 (paper SeqZ)", trs[0].CW, trs[1].CW)
	}
	if trs[1].At-trs[0].At != 4 {
		t.Errorf("spacing = %d cycles, want 4", trs[1].At-trs[0].At)
	}
}

func TestSeqZPhysicallyImplementsZ(t *testing.T) {
	// End-to-end: expand SeqZ, trigger the CTPG for each codeword, apply
	// the resulting playbacks to a simulated qubit, and check the net
	// unitary equals Z up to global phase (paper Section 5.3.2, E12).
	u := NewUnit()
	if err := u.Define("Z", SeqZ()); err != nil {
		t.Fatal(err)
	}
	ctpg := awg.NewCTPG()
	if err := ctpg.UploadStandardLibrary(0); err != nil {
		t.Fatal(err)
	}
	trs, err := u.Expand(nil, "Z", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare a superposition so a Z gate has an observable effect.
	d := qphys.NewDensity(1)
	d.Apply1(qphys.RY(math.Pi/2), 0)
	want := qphys.NewDensity(1)
	want.Apply1(qphys.RY(math.Pi/2), 0)
	want.Apply1(qphys.PauliZ(), 0)

	for _, tr := range trs {
		pb, err := ctpg.Trigger(tr.CW, tr.At)
		if err != nil {
			t.Fatal(err)
		}
		// Carrier-phase bookkeeping matters: the CTPG waveforms are
		// played at their absolute start times. SeqZ's 4-cycle (20 ns)
		// spacing is exactly one SSB period, so the axes are preserved.
		phi, theta := pulse.Rotation(pb.Wave, ctpg.SSBHz, pb.Start)
		d.Apply1(qphys.REquator(phi, theta), 0)
	}
	if d.Rho.MaxAbsDiff(want.Rho) > 1e-3 {
		t.Errorf("SeqZ did not implement Z:\ngot %v\nwant %v", d.Rho, want.Rho)
	}
}

func TestDefineStandardLibrary(t *testing.T) {
	u := NewUnit()
	u.DefineStandardLibrary()
	names := u.Names()
	if len(names) != 7 {
		t.Fatalf("names = %v", names)
	}
	seq, ok := u.Lookup("Ym90")
	if !ok || len(seq) != 1 || seq[0].CW != 6 {
		t.Errorf("Ym90 lookup = %+v, %v", seq, ok)
	}
}

func TestTotalDuration(t *testing.T) {
	s := Sequence{{0, 1}, {4, 2}, {6, 3}}
	if d := s.TotalDuration(); d != 10 {
		t.Errorf("duration = %d, want 10", d)
	}
	if d := (Sequence{{0, 1}}).TotalDuration(); d != 0 {
		t.Errorf("single-step duration = %d, want 0", d)
	}
}

func TestExpandDelayApplied(t *testing.T) {
	u := NewUnit()
	u.Delay = 3
	u.DefinePrimitive("I", 0)
	trs, _ := u.Expand(nil, "I", 50)
	if trs[0].At != 53 {
		t.Errorf("At = %d, want 53 (TD+Δ)", trs[0].At)
	}
}

func TestDefineCopiesSequence(t *testing.T) {
	u := NewUnit()
	seq := Sequence{{0, 1}, {4, 4}}
	if err := u.Define("Z", seq); err != nil {
		t.Fatal(err)
	}
	seq[1].CW = 99 // mutate caller's slice
	got, _ := u.Lookup("Z")
	if got[1].CW != 4 {
		t.Error("Define must copy the sequence")
	}
}

func TestRedefineReplaces(t *testing.T) {
	u := NewUnit()
	u.DefinePrimitive("g", 1)
	u.DefinePrimitive("g", 2)
	trs, _ := u.Expand(nil, "g", 0)
	if trs[0].CW != 2 {
		t.Error("redefinition must replace")
	}
	if len(u.Names()) != 1 {
		t.Error("redefinition must not duplicate")
	}
}

// TestGenerationCountsDefinitions pins the definition generation the
// replay engine keys memoized cold-start shots on: every Define and
// DefinePrimitive bumps it, a redefinition with the same content
// included, and lookups and expansions leave it alone.
func TestGenerationCountsDefinitions(t *testing.T) {
	u := NewUnit()
	g := u.Generation()
	u.DefinePrimitive("X90", 2)
	if u.Generation() != g+1 {
		t.Fatalf("DefinePrimitive: generation %d, want %d", u.Generation(), g+1)
	}
	u.DefinePrimitive("X90", 2)
	seq, _ := u.Lookup("X90")
	if err := u.Define("X90", seq); err != nil {
		t.Fatal(err)
	}
	if u.Generation() != g+3 {
		t.Fatalf("redefinitions: generation %d, want %d", u.Generation(), g+3)
	}
	if _, err := u.Expand(nil, "X90", 0); err != nil {
		t.Fatal(err)
	}
	if u.Define("bad", nil) == nil || u.Generation() != g+3 {
		t.Fatalf("lookups, expansions and rejected definitions must not bump the generation (%d)", u.Generation())
	}
}
