package service

import (
	"context"
	"encoding/json"
	"fmt"

	"quma/internal/asm"
	"quma/internal/awg"
	"quma/internal/core"
	"quma/internal/expt"
	"quma/internal/qphys"
	"quma/internal/replay"
)

// ExperimentRequest is one experiment of a batch job: an experiment type
// plus the machine and sweep parameters. Zero-valued optional fields
// select the same defaults the experiment's DefaultXParams would — a
// request is a delta against the defaults, and its result is a pure
// function of the request fields.
type ExperimentRequest struct {
	// Type selects the experiment: t1, ramsey, echo, allxy, rabi, rb,
	// repcode, phasecode, or asm (a raw assembly program).
	Type string `json:"type"`

	// Seed seeds the machine PRNG (sweep points derive per-point seeds
	// from it). Identical (seed, params) requests return bit-identical
	// results.
	Seed int64 `json:"seed"`
	// Backend is the state substrate: "density" (default) or
	// "trajectory".
	Backend string `json:"backend,omitempty"`
	// Qubit is the driven qubit for single-qubit experiments.
	Qubit int `json:"qubit,omitempty"`
	// NumQubits sizes the register for asm programs (default 1).
	NumQubits int `json:"num_qubits,omitempty"`
	// AmplitudeError is the fractional pulse miscalibration ε.
	AmplitudeError float64 `json:"amp_error,omitempty"`
	// T1Sec/T2Sec/DetuningHz, when non-zero, replace the default
	// coherence parameters on every qubit.
	T1Sec      float64 `json:"t1_sec,omitempty"`
	T2Sec      float64 `json:"t2_sec,omitempty"`
	DetuningHz float64 `json:"detuning_hz,omitempty"`

	// Rounds is the averaging count (shots per sweep point; the shot
	// count for asm). Zero selects the experiment default.
	Rounds int `json:"rounds,omitempty"`
	// Workers bounds sweep parallelism inside the experiment (0 = one
	// per CPU). Results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// ShotWorkers bounds shot-shard parallelism inside each sweep point
	// (0 = one per CPU). The shard plan is a pure function of the shot
	// count, so results are identical for any value.
	ShotWorkers int `json:"shot_workers,omitempty"`
	// BatchLanes caps how many shot shards run in lockstep on the
	// batched trajectory executor (one lane per shard — same derived
	// seeds, same streams): 0 = auto, 1 = scalar shards. Like
	// workers and shot_workers it is result-neutral: results are
	// bit-identical for any value, and the field is scrubbed from the
	// canonical form and the result's params echo.
	BatchLanes int `json:"batch_lanes,omitempty"`
	// Replay is the shot-replay engine mode: "", auto, compiled, or off
	// ("interp" is a deprecated alias of compiled). Results are
	// bit-identical for any value.
	Replay string `json:"replay,omitempty"`

	// DelaysCycles overrides the swept delays (t1/ramsey/echo).
	DelaysCycles []int `json:"delays_cycles,omitempty"`
	// Scales overrides the swept amplitude scales (rabi).
	Scales []float64 `json:"scales,omitempty"`
	// Lengths/Trials/SeqSeed configure rb sequence sampling.
	Lengths []int `json:"lengths,omitempty"`
	Trials  int   `json:"trials,omitempty"`
	SeqSeed int64 `json:"seq_seed,omitempty"`
	// DataQubits is the repcode distance (odd, 3-7; phasecode: 3).
	DataQubits int `json:"data_qubits,omitempty"`
	// WaitCycles is the repcode/phasecode memory time.
	WaitCycles int `json:"wait_cycles,omitempty"`
	// Program is the assembly source for asm requests.
	Program string `json:"program,omitempty"`
}

// ResultSchemaVersion is the version stamped into every result envelope.
// It bumps when the bytes a fixed request produces change — the service's
// byte-identity contract is per schema version, not forever.
//
//	v1: initial envelope {type, result}.
//	v2: shot-sharded replay — requests whose per-point shot count exceeds
//	    expt.ShotShardSize consume a sharded PRNG stream layout (one
//	    derived stream per fixed shard) instead of the single per-point
//	    stream, changing their sampled results (never the statistics:
//	    internal/conformance pins 5σ agreement against v1's layout).
//	    Shot counts at or below the threshold are byte-identical to v1.
//	    Adds the shot_workers request field, which — like workers —
//	    never affects the measured data, only its echo in the result's
//	    params block.
//	v3: result-neutral fields are scrubbed from the result's params echo —
//	    workers and shot_workers render as 0 no matter what the request
//	    set, so the result bytes (not just the measured data) are a pure
//	    function of the canonical request form. This is what makes the
//	    content-addressed result cache sound: two requests that differ
//	    only in scheduling knobs share one canonical hash and one result
//	    document. Requests that never set those fields are byte-identical
//	    to v2. batch_lanes (added later, no schema bump) joins the
//	    neutral set: lane-batched execution preserves every shard's
//	    stream bit-for-bit, so the field can never reach the result.
const ResultSchemaVersion = 3

// scrubNeutralFields zeroes the result-neutral request fields in place.
// These are the fields that can never change the measured data — the
// sweep/shard determinism contracts guarantee results are bit-identical
// for any Workers/ShotWorkers value — so they are excluded from the
// canonical request form that the idempotency hash, the journal, and the
// content-addressed result cache all key on. Every other field is
// result-affecting and must stay inside the canonical form: a field
// added here without a determinism proof would collide distinct results
// under one cache key. TestCanonicalFormCoversEveryRequestField is the
// guard — it fails on any new ExperimentRequest field until the field is
// classified, and proves the neutral set is exactly this one.
func scrubNeutralFields(r *ExperimentRequest) {
	r.Workers = 0
	r.ShotWorkers = 0
	r.BatchLanes = 0
}

// canonicalExperiments builds the canonical request bytes for a batch:
// each experiment with its result-neutral fields scrubbed, re-marshaled
// from the decoded structs so field order and formatting are fixed.
// Byte-equal canonical forms mean requests whose results are identical
// by construction. These bytes are what the journal re-executes at
// recovery (sound because the scrubbed fields are result-neutral) and
// what the idempotency/cache hash covers.
func canonicalExperiments(exps []ExperimentRequest) ([]byte, error) {
	canon := make([]ExperimentRequest, len(exps))
	copy(canon, exps)
	for i := range canon {
		scrubNeutralFields(&canon[i])
	}
	return json.Marshal(canon)
}

// scrubResultParams zeroes the result-neutral scheduling settings in a
// result's params echo before marshaling, so the served bytes match what
// the canonical (scrubbed) form of the request would produce — the other
// half of the schema-v3 contract. Sweep results echo an expt.Engine,
// whose Workers, ShotWorkers and BatchLanes are cleared in one place;
// Replay stays echoed as requested. The experiment layer guarantees the
// measured data is already identical; only the verbatim echo needed
// scrubbing.
func scrubResultParams(res any) {
	var eng *expt.Engine
	switch v := res.(type) {
	case *expt.T1Result:
		eng = &v.Params.Engine
	case *expt.RamseyResult:
		eng = &v.Params.Engine
	case *expt.EchoResult:
		eng = &v.Params.Engine
	case *expt.AllXYResult:
		eng = &v.Params.Engine
	case *expt.RabiResult:
		eng = &v.Params.Engine
	case *expt.RBResult:
		eng = &v.Params.Engine
	case *expt.RepCodeResult:
		eng = &v.Params.Engine
	case *expt.PhaseCodeResult:
		eng = &v.Params.Engine
	case *expt.ProgramResult:
		v.Params.ShotWorkers, v.Params.BatchLanes = 0, 0
	}
	if eng != nil {
		*eng = expt.Engine{Replay: eng.Replay}
	}
}

// maxProgramBytes bounds an asm request's program text: validation
// assembles it synchronously on the submit path, so the size must be
// capped before, not after.
const maxProgramBytes = 256 << 10

// maxRounds and maxTrials bound a request's shot count per sweep point
// and its RB sequences per length. The shard plan, the per-shard result
// slots and RB's survival table are allocated in proportion before any
// shot runs, so the counts must be capped at submit time.
const (
	maxRounds = 1 << 24
	maxTrials = 1 << 16
)

// maxRBLength and maxRBLengths bound an rb request's Clifford sequence
// lengths and how many it lists. Each (length, trial) point builds its
// random sequence and program text inside the job, in proportion to the
// length (about 44 bytes of assembly per Clifford), so a point's program
// at maxRBLength stays near 177 KiB, inside maxProgramBytes.
const (
	maxRBLength  = 4096
	maxRBLengths = 64
)

// experimentTypes is the closed set of request types.
var experimentTypes = map[string]bool{
	"t1": true, "ramsey": true, "echo": true, "allxy": true, "rabi": true,
	"rb": true, "repcode": true, "phasecode": true, "asm": true,
}

// FieldError locates one validation failure inside a batch.
type FieldError struct {
	// Index is the experiment's position in the batch.
	Index int `json:"index"`
	// Field names the offending request field (JSON name).
	Field string `json:"field"`
	// Message says what is wrong with it.
	Message string `json:"message"`
}

func (e FieldError) Error() string {
	return fmt.Sprintf("experiments[%d].%s: %s", e.Index, e.Field, e.Message)
}

// Validate checks one request, reporting every problem as a FieldError
// carrying the batch index i. Validation is complete at submit time: an
// accepted job can only fail on execution-time physics/timeout errors,
// never on malformed parameters.
func (r ExperimentRequest) Validate(i int) []FieldError {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Index: i, Field: field, Message: fmt.Sprintf(format, args...)})
	}
	if !experimentTypes[r.Type] {
		add("type", "unknown experiment type %q", r.Type)
		return errs
	}
	switch r.Backend {
	case "", string(core.BackendDensity), string(core.BackendTrajectory):
	default:
		add("backend", "unknown backend %q (want %q or %q)", r.Backend, core.BackendDensity, core.BackendTrajectory)
	}
	if _, err := replay.ParseMode(r.Replay); err != nil {
		add("replay", "%v", err)
	}
	if r.Rounds < 0 {
		add("rounds", "must be non-negative (0 selects the default)")
	} else if r.Rounds > maxRounds {
		add("rounds", "is %d, limit is %d", r.Rounds, maxRounds)
	}
	if r.Workers < 0 {
		add("workers", "must be non-negative (0 selects one worker per CPU)")
	}
	if r.ShotWorkers < 0 {
		add("shot_workers", "must be non-negative (0 selects one worker per CPU)")
	}
	if r.BatchLanes < 0 {
		add("batch_lanes", "must be non-negative (0 selects automatic grouping, 1 scalar shards)")
	}
	maxQ := 8
	if core.Backend(r.Backend) == core.BackendTrajectory {
		maxQ = 16
	}
	if r.Qubit < 0 || r.Qubit >= maxQ {
		add("qubit", "must be in 0..%d for backend %q", maxQ-1, r.Backend)
	}
	if r.Seed < 0 {
		add("seed", "must be non-negative (machine PRNG seed)")
	}
	if r.T1Sec < 0 {
		add("t1_sec", "must be non-negative")
	}
	if r.T2Sec < 0 {
		add("t2_sec", "must be non-negative")
	}
	// Every machine synthesizes its standard pulse library, and Rabi
	// each swept pulse, with amp_error applied; an upload over the DAC
	// full scale fails the job, so the same check rejects it here.
	ssb := r.config().SSBHz
	for _, sp := range awg.StandardLibrary() {
		if err := awg.CheckFullScale(sp.Name, awg.SynthesizeStandard(sp, ssb, r.AmplitudeError)); err != nil {
			add("amp_error", "is %g: %v", r.AmplitudeError, err)
			break
		}
	}
	switch r.Type {
	case "t1", "ramsey", "echo":
		for j, d := range r.DelaysCycles {
			if d < 0 {
				add("delays_cycles", "delay %d is %d, must be non-negative", j, d)
				break
			}
		}
	case "rb":
		if len(r.Lengths) > 0 && len(r.Lengths) < 3 {
			add("lengths", "need at least 3 sequence lengths, got %d", len(r.Lengths))
		} else if len(r.Lengths) > maxRBLengths {
			add("lengths", "has %d sequence lengths, limit is %d", len(r.Lengths), maxRBLengths)
		}
		for j, m := range r.Lengths {
			if m < 0 || m > maxRBLength {
				add("lengths", "length %d is %d, must be in 0..%d", j, m, maxRBLength)
				break
			}
		}
		if r.Trials < 0 {
			add("trials", "must be non-negative (0 selects the default)")
		} else if r.Trials > maxTrials {
			add("trials", "is %d, limit is %d", r.Trials, maxTrials)
		}
	case "rabi":
		if len(r.Scales) > 0 && len(r.Scales) < 8 {
			add("scales", "need at least 8 amplitude scales, got %d", len(r.Scales))
		}
		field, scales := "scales", r.Scales
		if len(scales) == 0 {
			field, scales = "amp_error", expt.DefaultRabiParams().Scales
		}
		for _, sc := range scales {
			if err := awg.CheckFullScale("RABI", expt.RabiPulse(sc, ssb, r.AmplitudeError)); err != nil {
				add(field, "scale %g with amp_error %g: %v", sc, r.AmplitudeError, err)
				break
			}
		}
	case "repcode":
		if d := r.DataQubits; d != 0 && (d%2 == 0 || d < 3 || d > 7) {
			add("data_qubits", "must be odd in 3..7, got %d", d)
		}
		if r.DataQubits >= 5 && core.Backend(r.Backend) != core.BackendTrajectory {
			add("backend", "distance-%d repcode (%d qubits) requires the trajectory backend", r.DataQubits, 2*r.DataQubits-1)
		}
	case "phasecode":
		if r.DataQubits != 0 && r.DataQubits != 3 {
			add("data_qubits", "the phase code is fixed at 3 data qubits, got %d", r.DataQubits)
		}
	case "asm":
		// Validation assembles and discards; execution re-assembles
		// through the Env cache. The duplicate is the accepted price of
		// complete submit-time validation — bounded by maxProgramBytes,
		// and only the first sighting of a program text pays it twice.
		if r.Program == "" {
			add("program", "must contain an assembly program")
		} else if len(r.Program) > maxProgramBytes {
			add("program", "is %d bytes, limit is %d", len(r.Program), maxProgramBytes)
		} else if _, err := asm.Assemble(r.Program); err != nil {
			add("program", "does not assemble: %v", err)
		}
		if r.NumQubits < 0 || r.NumQubits > maxQ {
			add("num_qubits", "must be in 0..%d for backend %q", maxQ, r.Backend)
		}
	}
	return errs
}

// config builds the machine configuration a request describes. It must
// stay a pure function of the request: the config (and the params below)
// fully determine the result.
func (r ExperimentRequest) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = r.Seed
	cfg.Backend = core.Backend(r.Backend)
	cfg.AmplitudeError = r.AmplitudeError
	if r.Type == "asm" && r.NumQubits > 0 {
		cfg.NumQubits = r.NumQubits
	}
	if r.T1Sec != 0 || r.T2Sec != 0 || r.DetuningHz != 0 {
		qp := qphys.DefaultQubitParams()
		if r.T1Sec != 0 {
			qp.T1 = r.T1Sec
		}
		if r.T2Sec != 0 {
			qp.T2 = r.T2Sec
		}
		qp.FreqDetuningHz = r.DetuningHz
		n := cfg.NumQubits
		if r.Type == "repcode" {
			n = 2*r.dataQubits() - 1
		} else if r.Type == "phasecode" {
			n = 5
		} else if r.Qubit >= n {
			n = r.Qubit + 1
		}
		cfg.Qubit = nil
		for i := 0; i < n; i++ {
			cfg.Qubit = append(cfg.Qubit, qp)
		}
	}
	return cfg
}

func (r ExperimentRequest) dataQubits() int {
	if r.DataQubits == 0 {
		return 3
	}
	return r.DataQubits
}

// engine builds the execution settings a request selects. They never
// change a result byte (see expt.Engine).
func (r ExperimentRequest) engine() expt.Engine {
	return expt.Engine{Workers: r.Workers, ShotWorkers: r.ShotWorkers, BatchLanes: r.BatchLanes, Replay: replay.Mode(r.Replay)}
}

func (r ExperimentRequest) sweepParams() expt.SweepParams {
	p := expt.DefaultSweepParams()
	p.Qubit = r.Qubit
	if r.Rounds > 0 {
		p.Rounds = r.Rounds
	}
	if len(r.DelaysCycles) > 0 {
		p.DelaysCycles = r.DelaysCycles
	}
	p.Engine = r.engine()
	return p
}

// Execute runs one validated request on the shared environment and
// returns its result marshaled to JSON. The bytes are deterministic:
// encoding/json is deterministic for the fixed result struct types, and
// every result field is (by the expt contracts) a pure function of the
// request. ctx preempts the experiment mid-sweep (see expt.Env); a
// preempted Execute returns the wrapped ctx error and no result.
func Execute(ctx context.Context, env *expt.Env, r ExperimentRequest) (json.RawMessage, error) {
	var (
		res any
		err error
	)
	cfg := r.config()
	switch r.Type {
	case "t1":
		res, err = env.RunT1(ctx, cfg, r.sweepParams())
	case "ramsey":
		res, err = env.RunRamsey(ctx, cfg, r.sweepParams())
	case "echo":
		res, err = env.RunEcho(ctx, cfg, r.sweepParams())
	case "allxy":
		p := expt.DefaultAllXYParams()
		p.Qubit = r.Qubit
		if r.Rounds > 0 {
			p.Rounds = r.Rounds
		}
		p.Engine = r.engine()
		res, err = env.RunAllXY(ctx, cfg, p)
	case "rabi":
		p := expt.DefaultRabiParams()
		p.Qubit = r.Qubit
		if r.Rounds > 0 {
			p.Rounds = r.Rounds
		}
		if len(r.Scales) > 0 {
			p.Scales = r.Scales
		}
		p.Engine = r.engine()
		res, err = env.RunRabi(ctx, cfg, p)
	case "rb":
		p := expt.DefaultRBParams()
		p.Qubit = r.Qubit
		if r.Rounds > 0 {
			p.Rounds = r.Rounds
		}
		if len(r.Lengths) > 0 {
			p.Lengths = r.Lengths
		}
		if r.Trials > 0 {
			p.Trials = r.Trials
		}
		if r.SeqSeed != 0 {
			p.Seed = r.SeqSeed
		}
		p.Engine = r.engine()
		res, err = env.RunRB(ctx, cfg, p)
	case "repcode", "phasecode":
		p := expt.DefaultRepCodeParams()
		p.DataQubits = r.DataQubits
		if r.Rounds > 0 {
			p.Rounds = r.Rounds
		}
		if r.WaitCycles > 0 {
			p.WaitCycles = r.WaitCycles
		}
		p.Engine = r.engine()
		if r.Type == "repcode" {
			res, err = env.RunRepCode(ctx, cfg, p)
		} else {
			res, err = env.RunPhaseCode(ctx, cfg, p)
		}
	case "asm":
		shots := r.Rounds
		if shots == 0 {
			shots = 100
		}
		res, err = env.RunProgram(ctx, cfg, expt.ProgramParams{
			Source:      r.Program,
			Shots:       shots,
			Replay:      replay.Mode(r.Replay),
			ShotWorkers: r.ShotWorkers,
			BatchLanes:  r.BatchLanes,
		})
	default:
		return nil, fmt.Errorf("service: unknown experiment type %q", r.Type)
	}
	if err != nil {
		return nil, err
	}
	scrubResultParams(res)
	return json.Marshal(struct {
		Type   string `json:"type"`
		Schema int    `json:"schema"`
		Result any    `json:"result"`
	}{Type: r.Type, Schema: ResultSchemaVersion, Result: res})
}
