package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"quma/internal/expt"
	"quma/internal/journal"
)

// submitRaw posts a batch and returns the HTTP status, the decoded
// envelope fields the cache tests care about, and the Cache-Status
// header.
func submitRaw(t *testing.T, base string, req SubmitRequest) (status int, id, cache, jobStatus, header string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		ID     string `json:"id"`
		Cache  string `json:"cache"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, env.ID, env.Cache, env.Status, resp.Header.Get("Cache-Status")
}

// TestCacheHitTerminalImmediate is the content-addressed cache
// contract: an unkeyed resubmission of a canonically identical batch is
// answered 200/done immediately with the original job, and the result
// document is byte-identical to the cold execution. A request differing
// only in result-neutral fields (workers, shot_workers) is the same
// canonical form and also hits; changing any result-affecting field
// misses.
func TestCacheHitTerminalImmediate(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 2})
	base := hs.URL

	req := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Seed: 31, Backend: "trajectory", Rounds: 30},
	}}
	id1, resp := submit(t, base, req)
	if id1 == "" {
		t.Fatalf("cold submit: status %d", resp.StatusCode)
	}
	waitDone(t, base, id1)
	cold := fetchResult(t, base, id1)

	// Identical resubmission: terminal-immediate hit on the same job.
	code, id, cache, status, header := submitRaw(t, base, req)
	if code != http.StatusOK || cache != "hit" || status != StatusDone {
		t.Fatalf("resubmit: status %d cache %q job status %q, want 200/hit/done", code, cache, status)
	}
	if id != id1 {
		t.Fatalf("cache hit returned job %s, want original %s", id, id1)
	}
	if !strings.Contains(header, "hit") {
		t.Fatalf("Cache-Status header %q does not mark a hit", header)
	}
	if got := fetchResult(t, base, id); !bytes.Equal(got, cold) {
		t.Fatalf("cache-hit result differs from cold execution:\ncold: %s\nhit:  %s", cold, got)
	}

	// Result-neutral variation: same canonical form, still a hit.
	neutral := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Seed: 31, Backend: "trajectory", Rounds: 30, Workers: 1, ShotWorkers: 2, BatchLanes: 4},
	}}
	code, id, cache, _, _ = submitRaw(t, base, neutral)
	if code != http.StatusOK || cache != "hit" || id != id1 {
		t.Fatalf("neutral-field variant: status %d cache %q id %s, want 200/hit/%s", code, cache, id, id1)
	}

	// Result-affecting variation: different canonical form, a miss.
	affecting := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Seed: 32, Backend: "trajectory", Rounds: 30},
	}}
	code, id, cache, _, _ = submitRaw(t, base, affecting)
	if code != http.StatusAccepted || cache != "" {
		t.Fatalf("affecting-field variant: status %d cache %q, want 202 miss", code, cache)
	}
	if id == id1 {
		t.Fatal("affecting-field variant reused the cached job")
	}
}

// TestDoneImpliesRetired is the terminal-visibility contract: by the
// time a job is observably done (its done channel, hence its status), it
// is journaled and retired — a resubmission sent right then is a cache
// hit on that job, and the retention trim it caused has happened (with
// one retained job, the previous one is already gone).
func TestDoneImpliesRetired(t *testing.T) {
	jr, err := journal.Open(journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	s, hs := startTestServer(t, Config{Workers: 1, MaxRetainedJobs: 1, Journal: jr})
	base := hs.URL
	prev := ""
	for i := 0; i < 20; i++ {
		req := quickAsm(int64(900 + i))
		id, resp := submit(t, base, req)
		if id == "" {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		s.mu.Lock()
		jb := s.jobs[id]
		s.mu.Unlock()
		if jb == nil {
			t.Fatalf("job %s not found", id)
		}
		<-jb.done
		code, hitID, cache, status, _ := submitRaw(t, base, req)
		if code != http.StatusOK || cache != "hit" || status != StatusDone || hitID != id {
			t.Fatalf("resubmit %d right after done: status %d cache %q job %s %q, want 200 hit on %s done",
				i, code, cache, hitID, status, id)
		}
		if prev != "" {
			resp, err := http.Get(base + "/v1/jobs/" + prev)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("job %s beyond the retention bound still served (%d) after %s was done", prev, resp.StatusCode, id)
			}
		}
		prev = id
	}
}

// TestCacheDisabled pins the opt-out: CacheSize < 0 turns memoization
// off and identical resubmissions execute as fresh jobs.
func TestCacheDisabled(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 2, CacheSize: -1})
	base := hs.URL

	req := quickAsm(33)
	id1, resp := submit(t, base, req)
	if id1 == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitDone(t, base, id1)
	code, id, _, _, _ := submitRaw(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit with cache disabled: status %d, want 202", code)
	}
	if id == id1 {
		t.Fatal("resubmit with cache disabled reused the original job")
	}
	// The two executions are still byte-identical — determinism does not
	// depend on the cache; the cache depends on determinism.
	waitDone(t, base, id)
	if a, b := fetchResult(t, base, id1), fetchResult(t, base, id); !bytes.Equal(a, b) {
		t.Fatal("independent executions of the same request differ")
	}
}

// TestKeyedSubmissionsBypassCache pins the precedence: an
// Idempotency-Key submission takes the keyed dedup path (409 on
// mismatch, replay on match) and never the content cache, even when the
// cache holds its canonical form under another job.
func TestKeyedSubmissionsBypassCache(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 2})
	base := hs.URL

	req := quickAsm(34)
	id1, resp := submit(t, base, req)
	if id1 == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitDone(t, base, id1)

	// Keyed submission of the cached form: a fresh job under the key.
	id2, code := submitKeyed(t, base, req, "bypass-key")
	if code != http.StatusAccepted {
		t.Fatalf("keyed submit: status %d, want 202", code)
	}
	if id2 == id1 {
		t.Fatal("keyed submission was served from the content cache")
	}
	waitDone(t, base, id2)
	// Replaying the key returns the keyed job, not the cached one.
	id3, code := submitKeyed(t, base, req, "bypass-key")
	if code != http.StatusOK || id3 != id2 {
		t.Fatalf("key replay: status %d id %s, want 200 %s", code, id3, id2)
	}
}

// healthCache fetches the /healthz cache block.
func healthCache(t *testing.T, base string) cacheStats {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cache *cacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatal("healthz has no cache block on a cache-enabled server")
	}
	return *h.Cache
}

// TestCacheLRUEvictionAndCounters drives the cache past capacity and
// checks the LRU boundary and the /healthz counters: the evicted form
// misses (re-executes), the retained form still hits.
func TestCacheLRUEvictionAndCounters(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1, CacheSize: 2})
	base := hs.URL

	run := func(seed int64) string {
		id, resp := submit(t, base, quickAsm(seed))
		if id == "" {
			t.Fatalf("submit seed %d: status %d", seed, resp.StatusCode)
		}
		waitDone(t, base, id)
		return id
	}
	run(40)
	run(41)
	// Touch 40 so 41 is the LRU entry, then insert 42 to evict it.
	if code, _, cache, _, _ := submitRaw(t, base, quickAsm(40)); code != http.StatusOK || cache != "hit" {
		t.Fatalf("touch seed 40: status %d cache %q, want hit", code, cache)
	}
	run(42)

	// Check the retained form before resubmitting the evicted one: the
	// evicted form's re-execution re-inserts it, which would evict 40.
	if code, _, cache, _, _ := submitRaw(t, base, quickAsm(40)); code != http.StatusOK || cache != "hit" {
		t.Fatalf("retained form: status %d cache %q, want hit", code, cache)
	}
	if code, _, _, _, _ := submitRaw(t, base, quickAsm(41)); code != http.StatusAccepted {
		t.Fatalf("evicted form: status %d, want 202 (miss, re-executes)", code)
	}

	st := healthCache(t, base)
	if st.Capacity != 2 || st.Entries > 2 {
		t.Fatalf("cache stats %+v: capacity/entries out of bounds", st)
	}
	if st.Hits < 2 || st.Misses < 3 || st.Evictions < 1 {
		t.Fatalf("cache stats %+v: want >=2 hits, >=3 misses, >=1 eviction", st)
	}
	// The split counters attribute the evictions: everything here was
	// LRU capacity pressure — the retention window never filled, so no
	// invalidations — and the legacy total must equal their sum.
	if st.CapacityEvictions < 1 || st.Invalidations != 0 {
		t.Fatalf("cache stats %+v: want >=1 capacity eviction and 0 invalidations", st)
	}
	if st.Evictions != st.CapacityEvictions+st.Invalidations {
		t.Fatalf("cache stats %+v: evictions is not the sum of the split counters", st)
	}
}

// TestRetentionEvictionInvalidatesCache pins the no-dangling-reference
// invariant: when the retention window evicts a job, its cache entry
// dies with it — a resubmission re-executes instead of referencing a
// 404.
func TestRetentionEvictionInvalidatesCache(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1, MaxRetainedJobs: 1})
	base := hs.URL

	reqA, reqB := quickAsm(44), quickAsm(45)
	idA, _ := submit(t, base, reqA)
	waitDone(t, base, idA)
	coldA := fetchResult(t, base, idA)
	idB, _ := submit(t, base, reqB)
	waitDone(t, base, idB) // retiring B evicts A from retention and cache

	// The drop is attributed to retention invalidation, not LRU capacity
	// pressure — the split /healthz counters tell the causes apart.
	if st := healthCache(t, base); st.Invalidations < 1 || st.CapacityEvictions != 0 {
		t.Fatalf("cache stats %+v: want >=1 invalidation and 0 capacity evictions", st)
	}

	code, id, _, _, _ := submitRaw(t, base, reqA)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of evicted form: status %d, want 202", code)
	}
	waitDone(t, base, id)
	if got := fetchResult(t, base, id); !bytes.Equal(got, coldA) {
		t.Fatal("re-executed result differs from the evicted original")
	}
	// The fresh completion re-indexed the form: now it hits again.
	if code, hitID, cache, _, _ := submitRaw(t, base, reqA); code != http.StatusOK || cache != "hit" || hitID != id {
		t.Fatalf("post-re-execution resubmit: status %d cache %q id %s, want 200/hit/%s", code, cache, hitID, id)
	}
}

// neutralFields is the test's own copy of the result-neutral
// classification; it must stay in lock-step with scrubNeutralFields.
var neutralFields = map[string]bool{"Workers": true, "ShotWorkers": true, "BatchLanes": true}

// affectingFields is every field whose value reaches the measured data
// (or its envelope) — the set the canonical form must cover.
var affectingFields = map[string]bool{
	"Type": true, "Seed": true, "Backend": true, "Qubit": true,
	"NumQubits": true, "AmplitudeError": true, "T1Sec": true, "T2Sec": true,
	"DetuningHz": true, "Rounds": true, "Replay": true, "DelaysCycles": true,
	"Scales": true, "Lengths": true, "Trials": true, "SeqSeed": true,
	"DataQubits": true, "WaitCycles": true, "Program": true,
}

// setNonZero sets v (a settable reflect.Value) to a deterministic
// non-zero value of its type.
func setNonZero(t *testing.T, v reflect.Value, field string) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("zz-" + field)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(7.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setNonZero(t, v.Index(0), field)
	default:
		t.Fatalf("field %s: unhandled kind %s — extend setNonZero", field, v.Kind())
	}
}

// TestCanonicalFormCoversEveryRequestField is the guard behind the
// cache's soundness: every ExperimentRequest field must be explicitly
// classified as result-affecting (inside the canonical form) or
// result-neutral (scrubbed out, with a determinism proof — see
// scrubNeutralFields). It fails on any unclassified new field, proves
// the scrub zeroes exactly the neutral set, and checks the canonical
// bytes react to affecting fields and ignore neutral ones.
func TestCanonicalFormCoversEveryRequestField(t *testing.T) {
	rt := reflect.TypeOf(ExperimentRequest{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch {
		case neutralFields[f.Name] && affectingFields[f.Name]:
			t.Errorf("field %s is classified both neutral and affecting", f.Name)
		case !neutralFields[f.Name] && !affectingFields[f.Name]:
			t.Errorf("field %s is unclassified: add it to affectingFields, or — only with a "+
				"determinism proof that results are bit-identical for any value — to "+
				"scrubNeutralFields and neutralFields", f.Name)
		}
		// Every field must marshal: a json:"-" field would silently escape
		// the canonical form while still reaching execution.
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == "-" || tag == "" {
			t.Errorf("field %s: canonical form requires an explicit json tag, got %q", f.Name, f.Tag.Get("json"))
		}
	}
	if t.Failed() {
		return
	}

	// scrubNeutralFields zeroes exactly the neutral set: start from a
	// request with every field non-zero, scrub, and diff field by field.
	full := ExperimentRequest{}
	fv := reflect.ValueOf(&full).Elem()
	for i := 0; i < rt.NumField(); i++ {
		setNonZero(t, fv.Field(i), rt.Field(i).Name)
	}
	scrubbed := full
	scrubNeutralFields(&scrubbed)
	sv := reflect.ValueOf(scrubbed)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		isZero := sv.Field(i).IsZero()
		if neutralFields[name] && !isZero {
			t.Errorf("scrubNeutralFields left neutral field %s = %v", name, sv.Field(i))
		}
		if !neutralFields[name] && !reflect.DeepEqual(sv.Field(i).Interface(), fv.Field(i).Interface()) {
			t.Errorf("scrubNeutralFields modified affecting field %s", name)
		}
	}

	// Canonical bytes: mutating any affecting field changes them;
	// mutating any neutral field does not.
	base := ExperimentRequest{Type: "t1", Seed: 3, Rounds: 20}
	canon := func(r ExperimentRequest) string {
		b, err := canonicalExperiments([]ExperimentRequest{r})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	baseCanon := canon(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		mut := base
		mv := reflect.ValueOf(&mut).Elem().Field(i)
		if mv.IsZero() {
			setNonZero(t, mv, name)
		} else {
			mv.SetZero()
		}
		changed := canon(mut) != baseCanon
		if affectingFields[name] && !changed {
			t.Errorf("mutating affecting field %s left the canonical bytes unchanged", name)
		}
		if neutralFields[name] && changed {
			t.Errorf("mutating neutral field %s changed the canonical bytes", name)
		}
	}
}

// TestNeutralFieldsAreExecuteByteNeutral is the other half of the
// neutral classification: not just excluded from the canonical form but
// provably absent from the result bytes — Execute returns identical
// documents for every Workers/ShotWorkers value (schema v3 scrubs their
// params echo).
func TestNeutralFieldsAreExecuteByteNeutral(t *testing.T) {
	env := expt.NewEnv()
	base := ExperimentRequest{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30}
	want, err := Execute(context.Background(), env, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range []ExperimentRequest{
		{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30, Workers: 1},
		{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30, Workers: 3, ShotWorkers: 2},
		{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30, ShotWorkers: 1},
		{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30, BatchLanes: 8},
		{Type: "t1", Seed: 13, Backend: "trajectory", Rounds: 30, Workers: 2, ShotWorkers: 2, BatchLanes: 4},
	} {
		got, err := Execute(context.Background(), env, mod)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d shot_workers=%d batch_lanes=%d perturbed the result bytes:\nwant %s\ngot  %s",
				mod.Workers, mod.ShotWorkers, mod.BatchLanes, want, got)
		}
	}

	// A sharded trajectory run (rounds above the shard threshold) with
	// lanes enabled actually exercises the batched executor; its bytes
	// must still match the scalar run's exactly.
	shardedBase := ExperimentRequest{Type: "asm", Seed: 14, Backend: "trajectory",
		Program: "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n",
		Rounds:  600}
	want, err = Execute(context.Background(), env, shardedBase)
	if err != nil {
		t.Fatal(err)
	}
	shardedLanes := shardedBase
	shardedLanes.BatchLanes = 8
	got, err := Execute(context.Background(), env, shardedLanes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch_lanes=8 perturbed a sharded asm result:\nwant %s\ngot  %s", want, got)
	}
}

// TestHugeEngineSettingsServeSameBytes submits requests whose
// batch_lanes, shot_workers and workers are math.MaxInt to a live
// server. The asm path plans its lane groups outside any job's panic
// recovery, so an overflow there would take the server down; the
// grouping clamps both counts to the shard count, and every job
// completes with the bytes of batch_lanes 1.
func TestHugeEngineSettingsServeSameBytes(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1})
	prog := "mov r15, 40\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"
	huge := []ExperimentRequest{
		{Type: "asm", Seed: 14, Backend: "trajectory", Program: prog, Rounds: 600, BatchLanes: math.MaxInt},
		{Type: "asm", Seed: 15, Backend: "trajectory", Program: prog, Rounds: 600, ShotWorkers: math.MaxInt},
		{Type: "t1", Seed: 16, Backend: "trajectory", Rounds: 300, Workers: math.MaxInt, ShotWorkers: math.MaxInt, BatchLanes: math.MaxInt},
	}
	id, resp := submit(t, hs.URL, SubmitRequest{Experiments: huge})
	if id == "" {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	waitDone(t, hs.URL, id)
	scalar := make([]ExperimentRequest, len(huge))
	for i, r := range huge {
		r.Workers, r.ShotWorkers, r.BatchLanes = 0, 0, 1
		scalar[i] = r
	}
	assertResultsMatchDirect(t, hs.URL, id, scalar)
}
