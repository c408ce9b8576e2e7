// Package quma is a full-system reproduction, in pure Go, of
// "An Experimental Microarchitecture for a Superconducting Quantum
// Processor" (Fu et al., MICRO 2017) — the QuMA control microarchitecture.
//
// The paper's FPGA control box and transmon chip are replaced by
// simulated substrates with the same interfaces and timing behaviour; the
// microarchitecture itself (codeword-based event control, queue-based
// event timing control, multilevel instruction decoding) is implemented
// cycle-accurately. ROADMAP.md records the architecture invariants and
// open items, and bench_test.go is the harness that regenerates every
// table and figure of the paper's evaluation.
//
// # Pluggable quantum-state backends
//
// The control pipeline never touches a concrete state type: core.Machine
// evolves the simulated chip through the qphys.State interface
// (Apply1/Apply2/ApplyKraus1/Measure/Reset/ProbExcited/ExpectationZ/
// NumQubits plus the Purity/ReducedQubit diagnostics), selected by
// core.Config.Backend and by the -backend flag of cmd/quma-run. Two
// implementations exist:
//
//   - qphys.Density — the exact backend. O(4^n) memory, every channel
//     applied as a full Kraus sum, so a single run yields ensemble
//     averages and mixed states. Register size 1–8. Pick it for
//     few-qubit physics validation, purity/entanglement diagnostics, and
//     anything that must be exact per run.
//
//   - qphys.Trajectory — the pure-state Monte-Carlo backend. O(2^n)
//     memory; every channel application samples one Kraus operator by
//     the Born rule from the machine's deterministic PRNG, so each shot
//     is one stochastic trajectory and means converge to the density
//     result (cross-backend agreement is pinned by tests in
//     internal/expt/backend_test.go, and the unitary kernels are pinned
//     to Density at 1e-12 in internal/qphys/trajectory_test.go).
//     Register size 1–16 — past the density wall — and substantially
//     faster per shot (BenchmarkBackendRepCode). Pick it for multi-shot
//     experiments, wide registers (the 9+-qubit repetition code), and
//     throughput-bound sweeps.
//
// Backend selection rides through the sweep engine untouched: workers
// deep-copy the Config, so cfg.Backend applies to every sweep point, and
// per-point seeds fix each trajectory, keeping results bit-identical for
// any worker count.
//
// # Simulator performance architecture
//
// The simulated chip is the hot path, and several layers keep it fast:
//
//   - In-place sparse gate kernels (internal/qphys/kernels.go and
//     trajectory.go). A k-qubit gate only couples basis indices differing
//     on its k bits, so both backends update their state block-by-block
//     in place — O(4^n) per single-qubit gate on Density, O(2^n) on
//     Trajectory — with zero heap allocation in steady state (the
//     full-register Apply/ApplyKraus paths reuse scratch buffers held on
//     Density). The trajectory kernels additionally exploit operator
//     structure: channels whose operators are all diagonal or
//     anti-diagonal (every DecoherenceChannel) price all candidates from
//     one population pass, and diagonal two-qubit unitaries (the CZ flux
//     pulse) touch only the amplitudes their non-unit entries scale. New
//     evolution code must use these kernels, not dense embedding;
//     kernels_test.go holds the property tests pinning them to the dense
//     reference.
//
//   - Channel caches in core.Machine. advance() memoizes the decoherence
//     Kraus set and detuning rotation per (qubit, idle duration), the
//     rotation cache stores the demodulated REquator matrix per
//     (qubit, codeword, SSB phase), and the SSB period itself is computed
//     once in New — the steady-state shot loop performs no channel
//     construction, no demodulation, and no allocation.
//
//   - The analytic readout path. The measurement chain samples the
//     matched-filter integration result S directly from its exact
//     sampling distribution (readout.MDU.SampleMeasure: S is Gaussian
//     with mean Re[mean·W] and sd σ·|W|/√n), consuming one PRNG variate
//     where per-sample trace synthesis consumed 2n — identical
//     statistics (assignment fidelity, collector averages), pinned to
//     the trace path by distribution tests. SynthesizeTrace remains the
//     sample-level reference and the multiplexed-readout route.
//
//   - The parallel sweep engine (internal/expt/sweep.go). Experiments
//     decompose into independent sweep points (delay values, Rabi
//     amplitude scales, AllXY pairs, RB (length, trial) pairs,
//     repetition-code round chunks); each point runs on a pooled
//     core.Machine seeded with DeriveSeed(baseSeed, index) across a
//     worker pool. Machines are reused across points via
//     Machine.ResetState (bit-identical to a fresh construction), each
//     distinct program text assembles once per sweep, and the seeding
//     contract makes results bit-identical for any worker count
//     (Engine.Workers; 0 = all CPUs) on both backends. Every sweep
//     experiment's Params embeds one expt.Engine, the single
//     declaration of its result-neutral execution settings: Workers,
//     ShotWorkers, BatchLanes and Replay.
//
// # Shot-replay execution engine
//
// internal/replay exploits the paper's own architectural split — a
// deterministic classical microarchitecture driving a stochastic quantum
// substrate — to avoid re-simulating the deterministic half per shot.
// The shot loop of every experiment lives in the engine (replay.Run with
// Shots as a parameter), not in the assembly Round_Loop. In ModeAuto the
// engine runs three leading shots through the full pipeline (shot 0
// carries the cold-start transient; shots 1 and 2 are recorded via
// core.Probe), then replays the recorded quantum schedule — idle
// channels, pulse rotations, flux unitaries, measurement chains — against
// the state backend for all remaining shots.
//
// On a cold machine the lead shots are a run's fixed price, and every
// shot of a feedback program pays the same full pipeline. The lead-skip
// rule (internal/replay, warmEntry) lets a machine at its reset point,
// in a run of more than three shots without an event timeline, skip the
// pipeline lead when the program is proven for it: its own memo holds a
// cold-start shot 0 it recorded at an earlier reset point, or another
// lane of the same lockstep call holds such an entry and the two
// machines are core.Machine.LeadEquivalent — configs equal up to Seed,
// neither customized since core.New by UploadPulse, SetQubitParams,
// Define or DefinePrimitive. The engine then replays shot 0 from the
// cold shot and shots 1–2 from the steady schedule, bit-identical to
// the pipeline lead, with the same Stats (Lead still counts the window),
// and the lane keeps the entry as proven. So a cold lockstep group of
// equivalent lanes runs one pipeline lead, and a pooled machine none at
// all once it holds the entry. On such a hit the memo alone decides
// correctness, so it is invalidated by UploadPulse, SetQubitParams and
// any µop redefinition, and mutating a machine's exported components
// after construction is unsupported (core.Machine.ReplayCache). In steady state
// that pipeline and Machine.ResetState allocate nothing
// (TestFullPipelineShotDoesNotAllocate): the microcode and µop units
// expand into reused buffers, and a reset clears the controller, queues
// and logs in place. qumabench's traced run on a 2-vCPU Xeon VM puts an
// RB m=128 shot at ~136 µs through the full pipeline against ~11 µs
// compiled, and the three lead shots of a run at ~0.37 ms
// (core.full_shot_us, replay.compiled_shot_ns, replay.lead_us).
//
// Invariants:
//
//   - Safety detection is conservative and two-fold. The execution
//     controller tracks measurement-tainted and cross-shot register
//     state (exec.Controller.ReplayUnsafeReason): any classical
//     consumption of a measurement result (feedback) or of state
//     surviving from a previous shot marks the program unsafe. And the
//     two recorded steady-state schedules must be identical, which also
//     catches timing-induced drift (e.g. a shot period that is not a
//     multiple of the SSB period, which would change demodulated
//     rotations from shot to shot).
//   - PRNG consumption order is preserved exactly: replay applies the
//     same operations in the same TD order — trajectory channel
//     sampling, projection, integration-noise draw — so replayed results
//     are bit-identical to full simulation (enforced per experiment, per
//     backend, per worker count by internal/expt/replay_test.go).
//   - Unsafe programs transparently fall back to full per-shot
//     simulation with identical results (examples/feedback, the
//     corrected repetition code, and the phase code's active reset all
//     exercise this). Correctness never depends on the detector saying
//     yes.
//   - Replayed shots perform no classical execution: controller
//     registers, data memory, the digital-output log, the instruction
//     count and the trace timeline reflect only fully simulated shots
//     (and a lead replayed from the memo simulates none; quma-run
//     therefore prints no instruction count or registers after a run
//     that replayed any shot). Results flow through
//     the data collection unit and the engine's per-shot measurement
//     stream, which replay maintains exactly.
//
// # Compiled replay schedules
//
// Replay runs specialized closure-free steps (qphys.SchedOp): the
// engine's recorder lowers each recorded operation to exactly one step
// as it is observed, so a recorded shot is already the compiled form
// once its population carries are linked (internal/replay/compile.go).
// It is the engine's only replay path ("interp" survives as a
// deprecated alias of it). The compiled-schedule invariants:
//
//   - PRNG-order preservation. Compilation never adds, removes, or
//     reorders a PRNG draw: one variate per multi-operator channel in
//     recorded TD order, then the projection and integration draws of
//     each measurement. Every recorded operation lowers to exactly one
//     step applying the same operator — nothing is merged or reordered —
//     so every pricing decision feeds on the same float64 inputs as the
//     full pipeline, and the selected Kraus operators, outcomes, results
//     and post-shot states are bit-identical between off and compiled
//     for every program (TestCompiledReplayStateBitExact). The one
//     slack is the sign of zeros from real-coefficient scaling, which
//     nothing downstream can observe.
//   - One generator. Each machine draws every variate from one
//     prng.Source (internal/prng), a port of math/rand's generator that
//     yields rand.NewSource's stream for every seed. The trajectory
//     register and the replay executors call its Float64 directly, so
//     the draw inlines into their loops; the machine's rand.Rand wraps
//     the same Source for the cold draws (readout noise, density-matrix
//     measurement). The stream is part of the determinism contract, with
//     math/rand as its test oracle (internal/prng/stream_test.go).
//   - Per-recorder tables. Each decoherence channel's axis-aligned
//     pricing coefficients and operator tables are hoisted out of the
//     shot loop into one qphys.ChannelTable per recorder, deduplicated
//     by the machine cache's Kraus-slice identity. A table accepts only the
//     channel class the machine records (real-diagonal and anti-diagonal
//     operators, 2 to 16 of them), so the compiled executors carry no
//     dense or complex-diagonal path. Likewise the flux CZ is the one
//     two-qubit step (qphys.SchedCZ): the recorder panics on any other
//     two-qubit operator, and every executor panics, naming
//     the kind, on a step kind it does not compile.
//   - Population carries. A kernel that already sweeps the state
//     (channel application, same-qubit unitary, projection) accumulates
//     the next consumer's populations in exactly the addition order a
//     standalone pass would use, eliminating most per-channel population
//     passes; carries thread through the CZ (negation keeps every
//     |a|²) and across consecutive shots (the steady-state schedule is
//     circular).
//   - Devirtualized dispatch. One function (the replay engine's
//     executor) binds a replayed lane to its concrete backend once:
//     *qphys.Trajectory runs one RunSchedule pass
//     per shot with the hot channel path inlined, *qphys.Density gets
//     direct concrete-type calls and hoisted operator/conjugate tables.
//     A new backend needs its own executor before it can replay. On a
//     one-qubit register RunSchedule keeps the two amplitudes and the
//     population carry in locals for the whole shot, with the one-qubit
//     lane kernel's expressions, and writes the register only around a
//     channel jump, a measurement and the end of the shot; it is pinned
//     bit for bit to the general body (TestRunSchedule1MatchesRunScheduleN).
//   - Zero allocations per shot. All scratch (step slice, tables,
//     measurement buffer) is allocated at compile time, and the compiled
//     form is memoized on the machine (core.Machine.ReplayCache, keyed
//     by program identity), validated entry-for-entry against each
//     fresh recording — pooled machines compile each program once per
//     lifetime, however many programs interleave on them. The lanes of
//     one lockstep group share one immutable entry.
//
// # Shot-sharded parallel replay
//
// Above the sweep-point level, internal/expt shards the shot range of a
// single job across a worker pool (expt.ShotShardPlan, shotshard.go).
// The shard plan is a pure function of the shot count — fixed chunks of
// ShotShardSize shots, independent of worker count, like chunkRounds —
// so it is part of the determinism contract, not a scheduling detail:
// shard k runs on its own pooled machine seeded DeriveSeed(pointSeed, k),
// executes its own lead/detect shots (replayed from the memo when the
// program is proven for the machine, by itself or by a lead-equivalent
// lane of its lockstep group) plus its slice of the replay loop,
// and results merge in shard order (per-shot callbacks run live in each
// shard and write only shard-indexed slots, which the caller folds in
// shard order; collector averages recomputed exactly from per-shard sums
// and counts). The result is
// bit-identical for any Engine.ShotWorkers value (0 = all CPUs), on both
// backends, in every replay mode. Shot counts at or below ShotShardSize
// keep the legacy single PRNG stream exactly; above it the stream layout
// changes — statistically equal, pinned at 5σ against the unsharded path
// by internal/conformance — which is why the service result schema
// version bumped (service.ResultSchemaVersion). The chunked
// repetition-code experiments keep their historical fixed chunk plan and
// DeriveSeed2 seeds, so their results are bit-identical to every
// prior release. Sharded error handling preserves the taxonomy: an
// injected or real panic in one shard cancels its siblings but is
// reported itself (never masked by the sibling aborts it caused), and
// cancellation mid-shard still aborts without perturbing
// (internal/expt/cancel_test.go, internal/faultinject).
//
// # Batch experiment service
//
// internal/service and cmd/quma-serve put a long-lived, concurrent
// HTTP/JSON front end over the experiment layer: batches of experiment
// requests (coherence sweeps, AllXY, Rabi, RB, repetition/phase codes,
// raw assembly programs) are validated, queued on a bounded job queue
// (429 on overflow, 503 while draining), and executed by a worker pool
// over one shared expt.Env — the caller-controlled cache environment
// that promotes the per-sweep program cache and machine pools (and with
// them every compiled replay schedule) to service lifetime. The service
// determinism contract: a job's result is bit-identical to a direct
// internal/expt call with the same (seed, params), regardless of
// concurrency, queue order, worker count, or which pooled machine
// served it. internal/conformance adds the randomized differential
// layer that keeps the whole execution matrix — {density, trajectory} ×
// {off, auto, compiled} — agreeing on generated programs, safe
// and unsafe alike. See the package documentation of internal/service
// for the API and the invariant list.
//
// The service is preemptible and fault-isolated: every experiment entry
// point takes a context.Context that flows through the sweep engine
// into the replay shot loop (checked with bounded staleness, so
// cancellation and deadlines land mid-sweep), DELETE /v1/jobs/{id}
// cancels queued or running jobs, draining can enforce a hard deadline,
// and worker panics are recovered into structured per-job failures
// without taking the process down. Cancellation can only abort a job,
// never perturb one — a completing job stays bit-identical to an
// uncancellable run, and a canceled job returns no partial results.
// internal/faultinject holds the deterministic fault plans and the
// chaos suite that pins availability, the stable error taxonomy, and
// post-fault byte-identity.
//
// The service is also crash-safe: with a journal directory configured
// (quma-serve -journal-dir), every accepted job is recorded in an
// append-only, fsync'd, checksummed log (internal/journal) before the
// submission is acknowledged, and a restarted server replays the log —
// finished jobs keep their journaled results, unfinished jobs
// re-execute deterministically under their original IDs, and a torn
// tail from a mid-write crash is truncated away rather than failing
// startup. Determinism is what turns this at-least-once re-execution
// into exactly-once-observable semantics; the Idempotency-Key request
// header extends the same guarantee to client resubmission. The
// kill-based crash harness (internal/service/crash_test.go and the CI
// crash-recovery smoke) SIGKILLs live servers mid-sweep, with and
// without injected disk faults (faultinject disk plans), and asserts
// nothing accepted is lost and every recovered byte matches an
// uncrashed run.
//
// Determinism also makes the service memoizable and multi-tenant:
// every batch reduces to a canonical form (result-neutral scheduling
// knobs scrubbed, everything else hashed), and a bounded
// content-addressed cache answers repeat submissions of a cached form
// terminal-immediately with the original retained job — byte-identical
// by construction, rebuilt from the journal across restarts. Static
// API-key tenants (quma-serve -api-keys) add per-tenant admission
// quotas (429 with a backlog-derived Retry-After) and priority
// classes drained by a deterministic weighted-fair stride scheduler;
// anonymous traffic keeps the pre-tenancy behavior unchanged.
//
// # Shot-batched execution
//
// The trajectory backend can run groups of shot shards in lockstep on
// a structure-of-arrays executor (internal/qphys.TrajBatch): one lane
// per shard, amplitudes interleaved lane-minor so each schedule step
// becomes flat vectorized passes (AVX2/AVX-512 on amd64, with
// register-resident specializations at eight lanes) instead of L
// scalar state walks. Lanes keep the schema-v2 shard contract exactly
// — shard k's rng stream still starts at DeriveSeed(pointSeed, k) and
// shards merge in shard order — and every kernel reproduces the scalar
// executor's float operations and rounding order, so a batched run's
// result bytes are identical to the scalar sharded path (and to the
// pre-sharding builds) per lane by construction, not by tolerance.
// A lane that draws an anti-diagonal jump applies it on its own strided
// column (one AVX2 pair kernel) before the step's flat pass and stays in
// the batch; that pass hands every lane its population carry, jumping
// lanes included, so a jump costs the next step no extra population
// pass. Compiled replay covers only the operations the machine records,
// so no other per-lane event exists, and steady state allocates nothing
// per shot. A one-qubit register
// skips the span passes: there each step is two amplitudes per lane and
// a shot is bound by one serial draw → √ → ÷ → scale chain per idle,
// so the executor runs one plain loop over the lanes per step and lets
// the CPU overlap the lanes' independent chains. Lanes may hold
// different shot counts (a plan's last shard is short): they run in
// lockstep as far as the shortest, then the survivors go on. The lane
// width is a result-neutral scheduling knob (expt.Engine.BatchLanes,
// embedded in every experiment's parameters): by default (0) a shot
// worker that would run several shards of one point back to back runs
// up to eight of them in lockstep, wherever BenchmarkReplayLanes
// measures the executor faster than scalar (expt.ShardLaneGroups); 1
// forces scalar shards. QUMA_NOSIMD=1 disables the SIMD kernels at
// process level — every suite passes both ways, and the conformance
// suite pins batched-vs-scalar byte identity per kernel and per
// experiment.
package quma
