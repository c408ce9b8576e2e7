package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"quma/internal/asm"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/qphys"
)

// opCounts is the quantum-operation mix of one shot, as core.Probe sees
// it. A change that only speeds the simulator up must leave it exactly
// unchanged.
type opCounts struct {
	Idle    int `json:"idle"`
	Pulse   int `json:"pulse"`
	Gate2   int `json:"gate2"`
	Measure int `json:"measure"`
}

// opCounter is a counting core.Probe.
type opCounter struct{ c opCounts }

func (p *opCounter) Idle(int, qphys.Matrix, []qphys.Matrix) { p.c.Idle++ }
func (p *opCounter) Pulse1(qphys.Matrix, int)               { p.c.Pulse++ }
func (p *opCounter) Gate2(qphys.Matrix, int, int)           { p.c.Gate2++ }
func (p *opCounter) Measured(int, int)                      { p.c.Measure++ }

// countOps counts the operations of one steady-state full-pipeline shot
// (shot 1; shot 0 carries the cold-start transient) of the unit program.
func countOps(u unitWork, seed int64) (opCounts, error) {
	prog, err := asm.Assemble(u.src)
	if err != nil {
		return opCounts{}, err
	}
	m, err := core.New(u.config(seed))
	if err != nil {
		return opCounts{}, err
	}
	if err := m.RunProgram(prog); err != nil {
		return opCounts{}, err
	}
	var p opCounter
	m.SetProbe(&p)
	err = m.RunProgram(prog)
	m.SetProbe(nil)
	return p.c, err
}

// simStats are the simulated statistics of a workload: the unit
// program's operation mix and the shard plan of the workload's shot
// count. They depend only on the code, never on the seed or the host.
type simStats struct {
	Program   string   `json:"program"`
	Ops       opCounts `json:"ops_per_shot"`
	ShardPlan string   `json:"shard_plan"`
}

// shardPlan describes the shot-shard plan and lane groups of a shot
// count.
func shardPlan(shots, lanes int) string {
	plan := expt.ShotShardPlan(shots)
	if plan == nil {
		return fmt.Sprintf("shots=%d single-stream", shots)
	}
	sizes := make([]string, 0, 2)
	for i, s := range plan {
		if i == 0 || s != plan[i-1] {
			sizes = append(sizes, fmt.Sprint(s))
		}
	}
	return fmt.Sprintf("shots=%d shards=%d sizes=%s lane_groups=%d", shots, len(plan), strings.Join(sizes, ","), len(expt.LaneGroups(plan, lanes)))
}

// expectedSimStats holds each workload's simulated statistics as the
// code produced them when the file was last updated. A speed-only change
// must reproduce them exactly; a change meant to alter the simulated
// machine updates the file in the same change.
//
//go:embed simstats.json
var expectedSimStats []byte

// checkSimStats computes the workload's simulated statistics twice, on
// machines of different seeds, prints them, and compares them with
// simstats.json. Any difference is a correctness failure.
func (b *bench) checkSimStats(u unitWork) opCounts {
	a, err := countOps(u, seedFor(b.seed, domainSanity, 1))
	if err != nil {
		b.problem("counting ops: %v", err)
		return a
	}
	c, err := countOps(u, seedFor(b.seed, domainSanity, 2))
	if err != nil {
		b.problem("counting ops: %v", err)
		return a
	}
	if a != c {
		b.problem("ops per shot differ between machines: %+v vs %+v", a, c)
	}
	st := simStats{Program: u.name, Ops: a, ShardPlan: shardPlan(u.jobShots, u.lanes)}
	fmt.Fprintf(b.out, "simstats program=%s ops_per_shot idle=%d pulse=%d gate2=%d measure=%d shard_plan=%q\n",
		st.Program, a.Idle, a.Pulse, a.Gate2, a.Measure, st.ShardPlan)

	var want map[string]simStats
	if err := json.Unmarshal(expectedSimStats, &want); err != nil {
		b.problem("simstats.json: %v", err)
		return a
	}
	switch w, ok := want[b.workload]; {
	case !ok:
		b.problem("simstats.json has no entry for workload %s", b.workload)
	case w != st:
		b.problem("simulated statistics %+v differ from simstats.json %+v", st, w)
	}
	return a
}
