// Package service is the quma batch experiment service: a long-lived,
// concurrent job scheduler and HTTP/JSON API in front of the experiment
// layer (internal/expt). It is the layer that turns the simulator from a
// collection of one-shot CLIs into a system — requests from many clients
// share one expt.Env for the life of the process, so the caches the
// sweep engine used to rebuild per invocation (assembled programs,
// pooled machines with their rotation/decoherence caches and compiled
// replay schedules) amortize across all traffic.
//
// # API
//
//	POST   /v1/jobs           submit a batch of experiment requests
//	                          202 {"id": ...}; 400 structured validation
//	                          error; 401 unauthenticated for a malformed
//	                          or unknown Authorization: Bearer key (no
//	                          header is the anonymous tenant); 429
//	                          resource_exhausted with Retry-After when
//	                          the job queue is full (queue_full) or the
//	                          tenant is at quota (tenant_quota); 503
//	                          while draining. An Idempotency-Key header
//	                          dedupes resubmission: a repeated (key,
//	                          batch) pair answers 200 with the original
//	                          job, a reused key with a different batch
//	                          answers 409 failed_precondition. An unkeyed
//	                          resubmission whose canonical form is cached
//	                          answers 200 {"id", "cache": "hit", ...}
//	                          terminal-immediately with the original
//	                          retained job (Cache-Status response header)
//	GET    /v1/jobs/{id}       job status + progress (+ terminal code)
//	DELETE /v1/jobs/{id}       cancel: a queued job goes terminal at
//	                          once, a running job is preempted mid-sweep
//	                          within a bounded number of shots;
//	                          idempotent, 200 with the current status
//	GET    /v1/jobs/{id}/result completed results (409 with the job's
//	                          terminal code for failed/canceled jobs)
//	GET    /v1/jobs/{id}/stream SSE progress events, one per completed
//	                          experiment, closing with the terminal state.
//	                          Events carry monotonic per-job ids; a
//	                          reconnect with Last-Event-ID resumes after
//	                          that id without duplicates
//	GET    /healthz           liveness + queue depth (total and per
//	                          priority class), cache hit/miss/eviction
//	                          counters (+ journal recovery stats when
//	                          durability is on)
//
// # Error taxonomy
//
// Every non-2xx envelope and every terminal job failure carries exactly
// one stable code (errors.go): invalid_argument, canceled,
// deadline_exceeded, resource_exhausted, internal — plus the
// lookup-shaped not_found, failed_precondition, and unauthenticated. A
// `reason` slug subdivides codes that cover several causes (queue_full
// vs tenant_quota vs draining, all resource_exhausted);
// messages are free text and carry the recovered stack for worker
// panics. The chaos suite (internal/faultinject) pins the mapping under
// injected faults.
//
// # Invariants (the contract future PRs build on)
//
// Determinism: a request's result depends only on its own fields —
// (seed, params) — never on concurrency, queue order, worker count,
// which pooled machine served it, or what ran on the Env before it.
// This is inherited, not re-proven: the sweep engine's seeding contract
// (expt.DeriveSeed), Machine.ResetState bit-identity, and the pool
// sharding by config-minus-seed (expt.Env) compose so that a service
// job is bit-identical to a direct internal/expt call. The service adds
// no randomness of its own: job IDs never enter result payloads, and
// result JSON contains no timestamps. Enforced by
// TestConcurrentIdenticalJobsBitIdentical (under -race in CI) and the
// CI smoke job (server result diffed against `quma-serve -once`).
//
// Result schema: every result envelope is {type, schema, result} with
// schema = ResultSchemaVersion. Byte-identity is promised per schema
// version: v2 introduced shot-sharded replay (expt.ShotShardPlan), which
// re-laid-out the PRNG streams of requests whose per-point shot count
// exceeds expt.ShotShardSize — their sampled results differ from v1's
// (statistics pinned at 5σ by internal/conformance) while smaller shot
// counts stay byte-identical. v3 scrubs the result-neutral workers and
// shot_workers knobs from the result's params echo (they render as 0),
// making the result bytes a pure function of the canonical request form;
// requests that never set those fields are byte-identical to v2.
//
// # Canonicalization and the result cache
//
// Every submitted batch is reduced to a canonical form: the decoded
// experiment structs with their result-neutral fields (workers,
// shot_workers — the knobs the determinism contracts prove can never
// change a result) scrubbed to zero, re-marshaled, and hashed. That one
// hash drives three mechanisms: Idempotency-Key conflict detection, the
// journaled request bytes recovery re-executes, and the
// content-addressed result cache. TestCanonicalFormCoversEveryRequestField
// forces every ExperimentRequest field to be explicitly classified as
// result-affecting (hashed) or result-neutral (scrubbed, with a proof
// obligation) — an unclassified new field fails the build's tests, so
// the cache can never silently collide distinct results.
//
// The cache (Config.CacheSize, default 256, negative disables) is a
// bounded LRU mapping canonical hash → retained job id. It stores
// references, never bytes: a hit answers with the original retained
// job, so cache hits are byte-identical to cold execution by
// construction — there is exactly one result document per canonical
// form. The cache is strictly an index over the retention window:
// entries are inserted when a job retires done, invalidated when
// retention evicts the job, and rebuilt from the journal at recovery,
// so a hit can never reference a 404 and a restart keeps warm. Keyed
// (Idempotency-Key) submissions bypass the cache and keep their
// stricter per-key contract. Hit/miss/eviction counters are on
// /healthz.
//
// # Tenancy, admission, and fair scheduling
//
// Tenants are declared statically (Config.Tenants; quma-serve
// -api-keys file.json) with a bearer key, a priority class, and
// quotas. Requests without an Authorization header run as the built-in
// anonymous tenant — batch class, no quotas — so an un-keyed deployment
// behaves exactly as before tenancy existed; a malformed or unknown
// credential is 401, never a silent demotion. Quotas bound a tenant's
// non-terminal jobs (max_queued_jobs) and total in-flight experiments
// (max_experiments_in_flight); the charge is taken at admission and
// released when the job retires, and over-quota submissions get 429
// tenant_quota with a Retry-After derived from the tenant's own
// backlog. The tenant name rides the journal's accepted record, so
// recovery restores each re-enqueued job's quota charge and class.
//
// Dequeue order is deterministic weighted fair scheduling (queue.go):
// per-class FIFO lanes drained by stride scheduling, interactive 3:1
// over batch under contention, ties to interactive, passes caught up on
// empty→non-empty transitions so an idle class earns priority but never
// unbounded credit. The schedule is a pure function of arrival order
// and classes — results never depend on it (each job is a pure function
// of its request); reproducibility makes fairness testable
// (TestFairDequeueServiceOrder pins the exact completion order).
//
// Cache lifetime: the Env (and with it every per-machine ReplayCache)
// lives exactly as long as the Server. Invalidation is delegated
// downward — core.Machine.UploadPulse/SetQubitParams drop compiled
// schedules whose aliased cache entries died, and the replay engine
// validates every memo hit against a fresh recording — so no service
// restart is ever needed for correctness.
//
// Backpressure: the job queue is bounded (Config.QueueSize); a full
// queue rejects with 429 and a Retry-After hint rather than queueing
// unboundedly. Draining (Server.Drain, wired to SIGINT/SIGTERM in
// cmd/quma-serve) stops intake with 503, finishes every queued and
// running job, then returns — submitted work is never dropped.
// Server.DrainTimeout layers a hard deadline on top: on expiry every
// non-terminal job's context is canceled (the jobs end `canceled`,
// retaining nothing) so shutdown time is bounded by the preemption
// latency, not by the slowest sweep.
//
// Isolation: a panic anywhere inside a job's sweep workers is recovered
// at the worker boundary (expt.PanicError), fails that job alone with
// code `internal` and the captured stack in the message, and discards —
// never pools — the machine it unwound from. The server keeps serving;
// the chaos suite submits work after every injected panic and asserts
// byte-identical results.
//
// Bounded memory: everything a client can grow is capped — request
// bodies (maxBodyBytes), asm program size (maxProgramBytes), batch size
// (Config.MaxBatch), retained terminal jobs and their results
// (Config.MaxRetainedJobs, oldest evicted to 404), the Env's program
// cache and pool shards, and each machine's compiled-schedule memo
// (epoch-flushed on overflow; flushes cost recomputation, never
// correctness).
//
// # Durability and recovery
//
// With Config.Journal set (quma-serve -journal-dir), the server keeps a
// crash-safe record of every accepted job in an append-only, fsync'd,
// checksummed log (internal/journal): one record at acceptance —
// written and synced before the 202 is sent, carrying the canonicalized
// request bytes and their hash — and one per state transition after it
// (running, done/failed/canceled with result bytes and result hash,
// evicted). The accepted append is load-bearing: if it fails, the
// submission is rejected 500 internal/journal_append_failed rather than
// accepted undurably. Later appends are best-effort, which is safe
// because of the determinism invariant above — if a crash eats a
// terminal record, recovery simply re-executes the request and
// reproduces the exact bytes the lost record held.
//
// Recovery is replay: a restarted server reads the journal before
// serving, restores finished jobs (results verified against the
// journaled hash; a mismatch demotes the job to re-execution), and
// re-enqueues every non-terminal job in original submission order under
// its original ID. At-least-once re-execution plus byte-deterministic
// results gives exactly-once-observable semantics — a client polling
// across a crash sees, at worst, a latency blip. A torn or corrupt
// journal tail (the signature a mid-write crash leaves) is truncated
// away at open, never a startup failure; /healthz reports the
// truncation. Idempotency-Key dedup state is itself journaled (the key
// rides the accepted record), so resubmitting after a crash returns the
// recovered original job. Recovered terminal jobs occupy retention
// slots like live ones, and eviction writes a journal tombstone that
// compaction (segment rotation) later drops — restarts never grow the
// journal or the retained set beyond Config.MaxRetainedJobs. The
// content-addressed cache index is rebuilt from the recovered terminal
// jobs in the same replay (and recovered evictions invalidate it), so
// repeat submissions keep hitting across restarts with the exact
// pre-crash bytes. The kill-based harness (crash_test.go) SIGKILLs a
// real server process mid-sweep — including under injected disk faults
// (faultinject.Plan.JournalFaults) — restarts it on the same directory,
// and pins all of the above under -race.
//
// Cancellation: each job owns a context created at submit; DELETE and
// the drain deadline cancel it, and Config.JobTimeout is layered on top
// at dequeue (context.WithTimeout). The context flows through Execute
// into every expt.Env entry point and down into the replay engine's
// shot loop, which checks it with bounded staleness (every
// replay.ctxCheckShots shots) — so preemption lands mid-sweep, not
// between experiments. A preempted job never exposes a partial result:
// the expt layer returns (nil, wrapped ctx error) and job.setTerminal drops
// the result slots on any non-done terminal state. The flip side is the
// determinism half of the contract: a job that completes is bit-identical
// to an uncancellable run — cancellation can only abort, never perturb
// (cancel_test.go in internal/expt pins both halves under -race).
//
// batch_lanes is a result-neutral scheduling knob, exactly like
// workers and shot_workers (the three, with replay, fill the one
// expt.Engine value ExperimentRequest.engine builds per request; the
// settings are documented on expt.Engine): it caps the groups of shot
// shards that run on the lockstep shot-batched executor
// (internal/qphys.TrajBatch), and every lane replays the same
// per-shard seed and rng stream as the scalar sharded path, so the
// result bytes are identical for any value. 0 (the default, and what the scrubbed canonical form runs) is
// the sweep engine's automatic rule (expt.ShardLaneGroups): a shot
// worker that would run several shards of one point back to back runs
// them in lockstep, where the executor is measured faster; 1 runs
// every shard scalar. Canonicalization therefore scrubs it from the
// cache key (a batched and a scalar submission of the same physics hit
// the same cache entry), no schema bump was needed to add it, and the
// service conformance tests pin byte-identical -once output with and
// without batching.
package service
