package expt

import (
	"context"
	"strings"
	"testing"

	"quma/internal/core"
	"quma/internal/qphys"
)

func TestPhaseCodeProtectsAgainstDephasing(t *testing.T) {
	cfg := core.DefaultConfig()
	for i := 0; i < 5; i++ {
		cfg.Qubit = append(cfg.Qubit, DephasingQubit(20e-6))
	}
	p := DefaultRepCodeParams()
	p.Rounds = 200
	p.WaitCycles = 800 // 4 µs: p_phase ≈ 0.16
	res, err := NewEnv().RunPhaseCode(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Bare superposition error near the analytic dephasing probability.
	if res.Bare < res.PhysicalP*0.5 || res.Bare > res.PhysicalP*1.6+0.05 {
		t.Errorf("bare error %v far from analytic %v", res.Bare, res.PhysicalP)
	}
	// The code must beat the bare qubit.
	if res.Protected >= res.Bare {
		t.Errorf("phase code did not help: protected %v vs bare %v\n%s",
			res.Protected, res.Bare, res.Table())
	}
}

func TestPhaseCodeUselessAgainstPureT1(t *testing.T) {
	// Ablation: against energy relaxation (which is not a Z error) the
	// phase code gives no advantage comparable to the dephasing case —
	// codes only correct the errors they are designed for. With strong
	// T1 and weak dephasing, the protected error stays substantial.
	cfg := core.DefaultConfig()
	for i := 0; i < 5; i++ {
		cfg.Qubit = append(cfg.Qubit, qphys.QubitParams{T1: 10e-6, T2: 20e-6}) // T2 = 2·T1: no pure dephasing
	}
	p := DefaultRepCodeParams()
	p.Rounds = 150
	p.WaitCycles = 1600 // 8 µs ≈ 0.8·T1
	res, err := NewEnv().RunPhaseCode(context.Background(), cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protected < 0.05 {
		t.Errorf("phase code against pure T1 reported error %v; expected it NOT to protect", res.Protected)
	}
}

func TestPhaseCodeRejectsBadParams(t *testing.T) {
	if _, err := NewEnv().RunPhaseCode(context.Background(), core.DefaultConfig(), RepCodeParams{}); err == nil {
		t.Error("Rounds=0 must fail")
	}
}

func TestPhaseCodeProgramShape(t *testing.T) {
	src := phaseCodeShotProgram(DefaultRepCodeParams(), true)
	if got := strings.Count(src, "Apply H"); got != 6 {
		t.Errorf("program has %d Hadamards, want 6 (rotate in + out)", got)
	}
	if !strings.Contains(src, "Apply2 CNOT, q3, q0") {
		t.Error("syndrome extraction missing")
	}
	// The per-shot program carries no averaging loop: the shot loop lives
	// in the replay engine.
	if strings.Contains(src, "Round_Loop") {
		t.Error("per-shot program must not contain the round loop")
	}
}
