package expt

// env.go promotes the sweep engine's per-call caches to caller-controlled
// lifetime. Every experiment entry point is a method on Env; a one-shot
// caller (a command, an example) holds one Env for its run, while a
// long-lived caller — the batch experiment service in internal/service —
// holds one Env for its whole life so that:
//
//   - each distinct program text assembles exactly once per Env, not once
//     per request (programCache), and the resulting *isa.Program pointer
//     is stable, which is what keys the per-machine compiled-schedule
//     memo (core.Machine.ReplayCache) across requests;
//   - machines are pooled across requests, not just across the points of
//     one sweep: construction (waveform synthesis, LUT upload, MDU
//     calibration) is paid once per (config, worker) instead of once per
//     request.
//
// Sharing machines across requests is only sound because of two standing
// invariants. First, Machine.ResetState(seed) returns a pooled machine
// to a state bit-identical to a fresh core.New with that seed, so which
// pool (or no pool) served a sweep point can never change a result.
// Second, pools are sharded by the full machine configuration *minus the
// seed* (envKey): a request only ever receives a machine built from a
// config identical to its own, and the seed — the one field requests
// legitimately vary — is applied per point via ResetState. Custom LUT
// uploads and µop definitions survive pooling (see Machine.ResetState);
// experiments that customize the machine (Rabi) re-apply the
// customization unconditionally on every point, and standard-library
// programs never address the spare entries, so a machine previously used
// by Rabi still behaves bit-identically to fresh for every other
// experiment.

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"quma/internal/core"
	"quma/internal/replay"
)

// Env is a shared experiment execution environment: an assembly cache
// plus machine pools, with lifetime controlled by the caller. The zero
// value is not usable; construct with NewEnv. All methods are safe for
// concurrent use — concurrent experiments draw disjoint machines from
// the pools and results are bit-identical to serial execution.
//
// Every experiment method takes a context.Context as its first
// parameter and honors it mid-sweep: cancellation or deadline expiry
// preempts the sweep between points and, inside the replay engine,
// within a bounded number of shots, returning a wrapped ctx error and
// no result. A method that returns a non-nil result was never
// preempted, so its result is bit-identical to an uncancellable run —
// cancellation can only abort, never perturb. The ctx-lint test
// (ctxlint_test.go) rejects any new Env method that omits the context.
type Env struct {
	progs *programCache

	// faults, when non-nil, is copied into every machine pool the Env
	// creates — the fault-injection hook points (chaos tests only).
	faults *FaultHooks

	mu    sync.Mutex
	pools map[string]*machinePool
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{progs: newProgramCache(), pools: make(map[string]*machinePool)}
}

// SetFaults installs fault-injection hooks (see FaultHooks) on the Env
// and on every pool it has already created. It must not be called while
// experiments are running — install the hooks before the first request
// (the chaos suite passes them at server construction).
func (e *Env) SetFaults(h *FaultHooks) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = h
	for _, p := range e.pools {
		p.faults = h
	}
}

// envKey is the machine-pool shard key: the complete machine
// configuration with the seed zeroed. Two configs with the same key
// build bit-identical machines up to ResetState(seed), which is exactly
// the condition for sharing a pool.
func envKey(cfg core.Config) string {
	c := cfg
	c.Seed = 0
	return fmt.Sprintf("%v", c)
}

// maxPoolShards bounds the pool map: requests vary configs freely (every
// distinct t1_sec, scale set, backend... is a new shard), so a
// service-lifetime Env flushes all shards on overflow. Machines held
// only by a flushed sync.Pool become garbage; the next request of any
// config pays one construction again. Determinism is untouched — pools
// only ever amortize cost.
const maxPoolShards = 64

// poolFor returns the (possibly shared) machine pool for cfg, creating
// it on first use.
func (e *Env) poolFor(cfg core.Config) *machinePool {
	key := envKey(cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pools[key]
	if !ok {
		if len(e.pools) >= maxPoolShards {
			e.pools = make(map[string]*machinePool)
		}
		p = newMachinePool(cfg)
		p.faults = e.faults
		e.pools[key] = p
	}
	return p
}

// ProgramParams configures a raw-assembly shot run: the service's (and
// the conformance suite's) escape hatch from the fixed experiment menu.
// Replay, ShotWorkers and BatchLanes are Engine's shot-level settings (a
// shot run has no sweep, hence no Workers); see Engine. They are plain
// fields, not an embedded Engine, so that the ProgramResult echo keeps
// its field order and composite literals can keep setting them.
type ProgramParams struct {
	// Source is the combined classical + QuMIS assembly text.
	Source string
	// Shots is the number of engine shots (must be positive).
	Shots       int
	Replay      replay.Mode
	ShotWorkers int
	BatchLanes  int
}

// ProgramResult summarizes a raw-assembly shot run. Everything in it is
// derived from the engine's per-shot measurement stream, which is
// bit-identical across replay modes, worker counts, and machine pooling.
type ProgramResult struct {
	Params ProgramParams `json:"params"`
	// Shots echoes the executed shot count.
	Shots int `json:"shots"`
	// MDPerShot is the largest number of per-qubit measurements any shot
	// produced. Feedback programs may measure different counts per shot
	// (MDVaries reports that); replay-safe programs always measure
	// MDPerShot times.
	MDPerShot int `json:"md_per_shot"`
	// MDVaries reports that shots disagreed on measurement count or
	// addressed qubits (only possible for replay-unsafe programs): the
	// positional Ones columns then mix measurement contexts and only
	// StreamHash summarizes the stream faithfully.
	MDVaries bool `json:"md_varies,omitempty"`
	// Qubits[i] is the qubit addressed by measurement i of the first
	// shot that reached position i.
	Qubits []int `json:"qubits,omitempty"`
	// Ones[i] counts shots whose i-th measurement discriminated |1⟩.
	Ones []int `json:"ones,omitempty"`
	// StreamHash is an FNV-1a hash over the complete (shot, index, qubit,
	// result) measurement stream — a strong witness for bit-identity
	// between two runs (column sums alone could coincide).
	StreamHash uint64 `json:"stream_hash"`
	// Replayed/Safe/Compiled report what the engine did (performance
	// telemetry; never affects the measured results).
	Replayed int  `json:"replayed"`
	Safe     bool `json:"safe"`
	Compiled bool `json:"compiled"`
}

// RunProgram assembles and runs a raw program p.Shots times, collecting
// the engine's measurement stream. Up to ShotShardSize shots run on one
// pooled machine seeded with cfg.Seed (the legacy single stream); larger
// shot counts split across the fixed shard plan, one pooled machine per
// shard seeded DeriveSeed(cfg.Seed, shard), merged in shard order — see
// shotshard.go. The program must halt and must not rely on
// classical register contents surviving into the caller (replayed shots
// perform no classical execution); results come exclusively from the
// measurement stream.
func (e *Env) RunProgram(ctx context.Context, cfg core.Config, p ProgramParams) (*ProgramResult, error) {
	if p.Shots <= 0 {
		return nil, fmt.Errorf("expt: program Shots must be positive, got %d", p.Shots)
	}
	prog, err := e.progs.get(p.Source)
	if err != nil {
		return nil, err
	}
	res := &ProgramResult{Params: p, Shots: p.Shots}
	h := fnv.New64a()
	pool := e.poolFor(cfg)
	eng := Engine{ShotWorkers: p.ShotWorkers, BatchLanes: p.BatchLanes, Replay: p.Replay}
	stats, err := runShotJobSharded(ctx, pool, cfg.Seed, prog, p.Shots, ShotShardPlan(p.Shots), eng, nil,
		func(shot int, md []replay.MD) {
			if shot > 0 && len(md) != res.MDPerShot {
				res.MDVaries = true
			}
			for i, r := range md {
				if i == len(res.Ones) {
					// A shot reached a position no earlier shot did
					// (feedback programs may branch around measurements).
					res.Qubits = append(res.Qubits, r.Qubit)
					res.Ones = append(res.Ones, 0)
					if shot > 0 {
						res.MDVaries = true
					}
				} else if res.Qubits[i] != r.Qubit {
					res.MDVaries = true
				}
				res.Ones[i] += r.Result
				h.Write([]byte{byte(r.Qubit), byte(r.Result)})
			}
			if len(md) > res.MDPerShot {
				res.MDPerShot = len(md)
			}
			// Shot separator: streams that differ only in shot boundaries
			// must hash differently.
			h.Write([]byte{0xFF})
		}, nil)
	if err != nil {
		return nil, err
	}
	res.Replayed = stats.Replayed
	res.Safe = stats.Safe
	res.Compiled = stats.Compiled
	res.StreamHash = h.Sum64()
	return res, nil
}
