package expt

import (
	"context"
	"testing"

	"quma/internal/core"
)

func TestRepCodeSyndromeTable(t *testing.T) {
	// The textbook decoding table, end to end through the machine: each
	// injected single-qubit X error produces its syndrome and the
	// feedback restores |111⟩.
	cases := []struct {
		inject string
		s0, s1 int
	}{
		{"", 0, 0},
		{"q0", 1, 0},
		{"q1", 1, 1},
		{"q2", 0, 1},
	}
	for _, c := range cases {
		out, err := RunRepCodeInjection(c.inject)
		if err != nil {
			t.Fatalf("inject %q: %v", c.inject, err)
		}
		if out.S0 != c.s0 || out.S1 != c.s1 {
			t.Errorf("inject %q: syndrome (%d,%d), want (%d,%d)", c.inject, out.S0, out.S1, c.s0, c.s1)
		}
		for q, v := range out.Data {
			if v != 1 {
				t.Errorf("inject %q: data q%d = %d after correction, want 1", c.inject, q, v)
			}
		}
	}
}

func TestRepCodeProtectsMemory(t *testing.T) {
	cfg := core.DefaultConfig()
	p := DefaultRepCodeParams()
	p.Rounds = 200
	res, err := NewEnv().RunRepCode(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the bare qubit decays at roughly the analytic rate.
	if res.Unprotected < res.PhysicalP*0.5 || res.Unprotected > res.PhysicalP*1.5+0.05 {
		t.Errorf("bare error %v far from analytic %v", res.Unprotected, res.PhysicalP)
	}
	// The headline: feedback correction beats the bare qubit.
	if res.Protected >= res.Unprotected {
		t.Errorf("correction did not help: protected %v vs bare %v\n%s",
			res.Protected, res.Unprotected, res.Table())
	}
	// And beats the same code without feedback.
	if res.Protected >= res.Uncorrected {
		t.Errorf("feedback did not help: %v vs %v", res.Protected, res.Uncorrected)
	}
}

func TestRepCodeRejectsBadParams(t *testing.T) {
	if _, err := NewEnv().RunRepCode(context.Background(), core.DefaultConfig(), RepCodeParams{}); err == nil {
		t.Error("Rounds=0 must fail")
	}
}
