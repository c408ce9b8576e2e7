package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quma/internal/expt"
)

// testBatch is a mixed batch exercising the sweep engine, the chunked
// memory experiments, and the raw-assembly path, sized so the full
// determinism test stays in CI budget.
func testBatch() SubmitRequest {
	return SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Seed: 5, Backend: "trajectory", Rounds: 40},
		{Type: "asm", Seed: 9, Rounds: 60, Program: "mov r15, 40000\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"},
		{Type: "rb", Seed: 2, SeqSeed: 7, Lengths: []int{1, 4, 8}, Trials: 2, Rounds: 30},
		{Type: "repcode", Seed: 3, Rounds: 60},
	}}
}

func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg).Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(s.Drain)
	return s, hs
}

func submit(t *testing.T, base string, req SubmitRequest) (string, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return acc.ID, resp
}

// waitDone polls the status endpoint until the job reaches a terminal
// state.
func waitDone(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.Status {
		case StatusDone:
			return st.Status
		case StatusFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return ""
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestConcurrentIdenticalJobsBitIdentical is the service determinism
// contract: N concurrent submissions of the same batch — racing for
// workers and pooled machines — return byte-identical result documents,
// and each experiment matches a direct internal/expt call on a fresh
// environment. Runs under -race in CI.
func TestConcurrentIdenticalJobsBitIdentical(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 3, QueueSize: 16})
	req := testBatch()

	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			// 202 is a fresh accept; 200 is a content-addressed cache hit —
			// a racing submission that landed after a sibling already
			// completed is answered with the sibling's retained job, which
			// serves the identical bytes the loop below asserts.
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			var acc struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids[i] = acc.ID
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	bodies := make([][]byte, n)
	for i, id := range ids {
		waitDone(t, hs.URL, id)
		bodies[i] = fetchResult(t, hs.URL, id)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("result %d differs from result 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}

	// And the service result must equal the direct internal/expt path.
	env := expt.NewEnv()
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(bodies[0], &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(req.Experiments) {
		t.Fatalf("got %d results, want %d", len(doc.Results), len(req.Experiments))
	}
	for i, ex := range req.Experiments {
		direct, err := Execute(context.Background(), env, ex)
		if err != nil {
			t.Fatalf("direct experiments[%d]: %v", i, err)
		}
		// The served raw message was re-indented by the response
		// encoder; compare compacted forms.
		var a, b bytes.Buffer
		if err := json.Compact(&a, doc.Results[i]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("experiments[%d] (%s): service result differs from direct call\nservice: %s\ndirect:  %s",
				i, ex.Type, a.Bytes(), b.Bytes())
		}
	}

	// Cache-hit byte-identity vs cold execution: with every sibling
	// finished, one more unkeyed resubmission must be a terminal-
	// immediate cache hit (200, cache:"hit", status done) whose result
	// document is byte-identical to the cold executions above.
	body, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm resubmit: status %d, want 200 cache hit", resp.StatusCode)
	}
	if cs := resp.Header.Get("Cache-Status"); !strings.Contains(cs, "hit") {
		t.Fatalf("warm resubmit: Cache-Status %q, want a hit", cs)
	}
	var hit struct {
		ID     string `json:"id"`
		Cache  string `json:"cache"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" || hit.Status != StatusDone || hit.ID == "" {
		t.Fatalf("warm resubmit envelope: %+v, want cache=hit status=done", hit)
	}
	if got := fetchResult(t, hs.URL, hit.ID); !bytes.Equal(got, bodies[0]) {
		t.Fatalf("cache-hit result differs from cold execution:\nhit:  %s\ncold: %s", got, bodies[0])
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestMalformedRequestsReturnStructured400(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
		wantReason string
		wantField  string
		wantIndex  int
	}{
		{"truncated json", `{"experiments": [`, "malformed_json", "", 0},
		{"unknown top-level field", `{"experimentz": []}`, "malformed_json", "", 0},
		{"empty batch", `{"experiments": []}`, "empty_batch", "", 0},
		{"unknown type", `{"experiments": [{"type": "teleportation"}]}`, "invalid_fields", "type", 0},
		{"bad backend", `{"experiments": [{"type": "t1", "backend": "gpu"}]}`, "invalid_fields", "backend", 0},
		{"bad replay mode", `{"experiments": [{"type": "t1", "replay": "warp"}]}`, "invalid_fields", "replay", 0},
		{"rb too few lengths", `{"experiments": [{"type": "t1"}, {"type": "rb", "lengths": [1, 2]}]}`, "invalid_fields", "lengths", 1},
		{"even repcode distance", `{"experiments": [{"type": "repcode", "data_qubits": 4}]}`, "invalid_fields", "data_qubits", 0},
		{"wide repcode on density", `{"experiments": [{"type": "repcode", "data_qubits": 5}]}`, "invalid_fields", "backend", 0},
		{"asm with no program", `{"experiments": [{"type": "asm"}]}`, "invalid_fields", "program", 0},
		{"asm that does not assemble", `{"experiments": [{"type": "asm", "program": "frob r1"}]}`, "invalid_fields", "program", 0},
		{"negative rounds", `{"experiments": [{"type": "allxy", "rounds": -5}]}`, "invalid_fields", "rounds", 0},
		{"rounds over the limit", `{"experiments": [{"type": "allxy", "rounds": 16777217}]}`, "invalid_fields", "rounds", 0},
		{"huge rounds", `{"experiments": [{"type": "asm", "program": "halt", "rounds": 10000000000}]}`, "invalid_fields", "rounds", 0},
		{"trials over the limit", `{"experiments": [{"type": "rb", "trials": 65537}]}`, "invalid_fields", "trials", 0},
		{"rb length over the limit", `{"experiments": [{"type": "rb", "lengths": [1, 4, 4097]}]}`, "invalid_fields", "lengths", 0},
		{"rb huge length", `{"experiments": [{"type": "rb", "lengths": [1, 10000000000, 8]}]}`, "invalid_fields", "lengths", 0},
		{"rb negative length", `{"experiments": [{"type": "rb", "lengths": [1, -4, 8]}]}`, "invalid_fields", "lengths", 0},
		{"rb too many lengths", `{"experiments": [{"type": "rb", "lengths": [` + strings.Repeat("1, ", 64) + `1]}]}`, "invalid_fields", "lengths", 0},
		{"qubit beyond density register", `{"experiments": [{"type": "t1", "qubit": 12}]}`, "invalid_fields", "qubit", 0},
		{"negative T1", `{"experiments": [{"type": "t1", "t1_sec": -1}]}`, "invalid_fields", "t1_sec", 0},
		{"negative batch_lanes", `{"experiments": [{"type": "repcode", "backend": "trajectory", "batch_lanes": -1}]}`, "invalid_fields", "batch_lanes", 0},
		{"negative shot_workers", `{"experiments": [{"type": "t1", "shot_workers": -1}]}`, "invalid_fields", "shot_workers", 0},
		{"negative workers", `{"experiments": [{"type": "t1", "workers": -1}]}`, "invalid_fields", "workers", 0},
		{"amp_error over full scale", `{"experiments": [{"type": "t1", "amp_error": 0.12}]}`, "invalid_fields", "amp_error", 0},
		{"rabi scale over full scale", `{"experiments": [{"type": "rabi", "scales": [0, 0.2, 0.4, 0.6, 0.8, 1, 1.5, 2]}]}`, "invalid_fields", "scales", 0},
		{"negative delay", `{"experiments": [{"type": "t1", "delays_cycles": [0, -800]}]}`, "invalid_fields", "delays_cycles", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, hs.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var e struct {
				Error struct {
					Code    string       `json:"code"`
					Reason  string       `json:"reason"`
					Details []FieldError `json:"details"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
			}
			if e.Error.Code != CodeInvalidArgument {
				t.Errorf("code %q, want %q", e.Error.Code, CodeInvalidArgument)
			}
			if e.Error.Reason != tc.wantReason {
				t.Errorf("reason %q, want %q", e.Error.Reason, tc.wantReason)
			}
			if tc.wantField != "" {
				found := false
				for _, d := range e.Error.Details {
					if d.Field == tc.wantField && d.Index == tc.wantIndex {
						found = true
					}
				}
				if !found {
					t.Errorf("details %+v missing field %q at index %d", e.Error.Details, tc.wantField, tc.wantIndex)
				}
			}
		})
	}
}

// TestRBLengthLimits pins the rb length bounds at their edges: lengths
// 0..maxRBLength and up to maxRBLengths of them validate, one past
// either limit does not, and the message names the limit.
func TestRBLengthLimits(t *testing.T) {
	many := make([]int, maxRBLengths)
	for i := range many {
		many[i] = i
	}
	for _, lengths := range [][]int{{0, 1, maxRBLength}, many} {
		if errs := (ExperimentRequest{Type: "rb", Lengths: lengths}).Validate(0); len(errs) != 0 {
			t.Errorf("lengths %v rejected: %+v", lengths, errs)
		}
	}
	for _, tc := range []struct {
		lengths []int
		limit   int
	}{
		{[]int{1, 2, maxRBLength + 1}, maxRBLength},
		{[]int{-1, 2, 3}, maxRBLength},
		{append(many, 1), maxRBLengths},
	} {
		errs := ExperimentRequest{Type: "rb", Lengths: tc.lengths}.Validate(0)
		if len(errs) != 1 || errs[0].Field != "lengths" || !strings.Contains(errs[0].Message, fmt.Sprint(tc.limit)) {
			t.Errorf("lengths %v: errors %+v, want one lengths error naming %d", tc.lengths, errs, tc.limit)
		}
	}
}

// TestInterpReplayAliasRunsCompiled pins the deprecated "interp" replay
// mode: it validates, runs compiled replay, and measures exactly what
// "off" measures.
func TestInterpReplayAliasRunsCompiled(t *testing.T) {
	env := expt.NewEnv()
	run := func(mode string) expt.ProgramResult {
		r := ExperimentRequest{Type: "asm", Seed: 9, Rounds: 60, Replay: mode,
			Program: "mov r15, 40000\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"}
		if errs := r.Validate(0); len(errs) != 0 {
			t.Fatalf("replay %q rejected: %+v", mode, errs)
		}
		b, err := Execute(context.Background(), env, r)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Result expt.ProgramResult }
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Result
	}
	off, alias := run("off"), run("interp")
	if !alias.Safe || !alias.Compiled {
		t.Fatalf("interp result reports safe=%v compiled=%v, want compiled replay", alias.Safe, alias.Compiled)
	}
	if alias.StreamHash != off.StreamHash || fmt.Sprint(alias.Ones) != fmt.Sprint(off.Ones) {
		t.Fatalf("interp measured (%x, %v), off measured (%x, %v)", alias.StreamHash, alias.Ones, off.StreamHash, off.Ones)
	}
}

// TestExecuteRabi pins that a rabi job encodes: its fixed-phase fit is
// undamped (τ = +Inf), which JSON cannot carry as a number, so the
// result must encode it as null rather than fail the job.
func TestExecuteRabi(t *testing.T) {
	r := ExperimentRequest{Type: "rabi", Seed: 3, Rounds: 40}
	if errs := r.Validate(0); len(errs) != 0 {
		t.Fatalf("rabi request rejected: %+v", errs)
	}
	b, err := Execute(context.Background(), expt.NewEnv(), r)
	if err != nil {
		t.Fatalf("rabi job failed: %v", err)
	}
	var doc struct{ Result expt.RabiResult }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if f := doc.Result.Fit; !math.IsInf(f.Tau, 1) || f.A <= 0 {
		t.Errorf("decoded fit %+v, want an undamped fringe with positive amplitude", f)
	}
	if p := doc.Result.PiScale; !(p > 0.8 && p < 1.2) {
		t.Errorf("PiScale = %v, want near 1", p)
	}
}

// TestQueueFullReturns429 fills the bounded queue of a server whose
// workers were never started, so occupancy is deterministic.
func TestQueueFullReturns429(t *testing.T) {
	s := New(Config{QueueSize: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body, _ := json.Marshal(SubmitRequest{Experiments: []ExperimentRequest{{Type: "t1", Rounds: 5}}})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
	}
	resp, b := postJSON(t, hs.URL+"/v1/jobs", string(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 must carry a Retry-After hint")
	}
	var e struct {
		Error struct {
			Code   string `json:"code"`
			Reason string `json:"reason"`
		} `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || e.Error.Code != CodeResourceExhausted || e.Error.Reason != "queue_full" {
		t.Fatalf("want structured resource_exhausted/queue_full error, got %s (err %v)", b, err)
	}
	// Draining the never-started server must still finish the queued
	// jobs (Drain closes the queue; Start the workers to consume it).
	s.Start()
	s.Drain()
}

func TestDrainFinishesQueuedJobsAndRejectsNew(t *testing.T) {
	s, hs := startTestServer(t, Config{Workers: 1, QueueSize: 8})
	req := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "asm", Seed: 4, Rounds: 40, Program: "mov r15, 400\nQNopReg r15\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"},
	}}
	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct seeds: identical batches would dedupe onto one job
		// through the result cache once the first completes.
		req.Experiments[0].Seed = int64(4 + i)
		id, resp := submit(t, hs.URL, req)
		if id == "" {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, id)
	}
	s.Drain()
	// Every job accepted before the drain must have completed.
	for _, id := range ids {
		if got := waitDone(t, hs.URL, id); got != StatusDone {
			t.Fatalf("job %s: status %s after drain", id, got)
		}
	}
	// And new work is refused with 503.
	body, _ := json.Marshal(req)
	resp, b := postJSON(t, hs.URL+"/v1/jobs", string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503; body %s", resp.StatusCode, b)
	}
}

// TestDrainTimeoutCancelsInFlightJobs holds a worker busy with an
// artificially slow sweep, then drains with a hard deadline: the drain
// must return promptly (not wait out the whole job), the job must end
// `canceled` with no result, and post-drain submissions must be refused.
func TestDrainTimeoutCancelsInFlightJobs(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Faults:  &expt.FaultHooks{Shot: func(int) { time.Sleep(time.Millisecond) }},
	}).Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	id, resp := submit(t, hs.URL, SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Rounds: 100},
	}})
	if id == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// Wait for the worker to pick the job up, so the drain deadline is
	// exercised against a genuinely running sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sresp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if st.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.DrainTimeout(30 * time.Millisecond)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("drain with a 30ms deadline took %v", waited)
	}
	sresp, err := http.Get(hs.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Status string `json:"status"`
		Code   string `json:"code"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Status != StatusCanceled || st.Code != CodeCanceled {
		t.Fatalf("drained job is %s/%s, want canceled/canceled", st.Status, st.Code)
	}
	rresp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled job served a result (status %d)", rresp.StatusCode)
	}
	body, _ := json.Marshal(SubmitRequest{Experiments: []ExperimentRequest{{Type: "t1"}}})
	presp, b := postJSON(t, hs.URL+"/v1/jobs", string(body))
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503; body %s", presp.StatusCode, b)
	}
}

func TestStatusResultAndStreamLifecycle(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1})

	// Unknown job: structured 404 everywhere.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	req := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "asm", Seed: 1, Rounds: 30, Program: "mov r15, 400\nQNopReg r15\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"},
		{Type: "asm", Seed: 2, Rounds: 30, Program: "mov r15, 400\nQNopReg r15\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"},
	}}
	id, resp := submit(t, hs.URL, req)
	if id == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// The SSE stream must deliver monotonic progress ending in done.
	sresp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var last progressEvent
	prev := -1
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad stream payload %q: %v", line, err)
		}
		if last.Completed < prev {
			t.Fatalf("progress went backwards: %d after %d", last.Completed, prev)
		}
		prev = last.Completed
		if last.Status == StatusDone || last.Status == StatusFailed {
			break
		}
	}
	if last.Status != StatusDone || last.Completed != 2 || last.Total != 2 {
		t.Fatalf("terminal stream event %+v, want done 2/2", last)
	}

	// After done, result is served and a second fetch is identical.
	r1 := fetchResult(t, hs.URL, id)
	r2 := fetchResult(t, hs.URL, id)
	if !bytes.Equal(r1, r2) {
		t.Fatal("re-fetching a result changed it")
	}

	// healthz reports liveness.
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil || !health.OK {
		t.Fatalf("healthz not ok (err %v)", err)
	}
}

// TestRetentionEvictsOldestFinishedJobs bounds the result store: with
// MaxRetainedJobs=1, finishing a second job evicts the first to 404.
func TestRetentionEvictsOldestFinishedJobs(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1, MaxRetainedJobs: 1})
	req := SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "asm", Seed: 1, Rounds: 10, Program: "mov r15, 400\nQNopReg r15\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n"},
	}}
	id1, _ := submit(t, hs.URL, req)
	waitDone(t, hs.URL, id1)
	fetchResult(t, hs.URL, id1) // still retained: it is the only finished job
	req.Experiments[0].Seed = 2 // distinct job, not a cache hit
	id2, _ := submit(t, hs.URL, req)
	waitDone(t, hs.URL, id2)
	fetchResult(t, hs.URL, id2)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status %d, want 404", resp.StatusCode)
	}
}

// TestJobTimeoutFailsCleanly gives a job a deadline it cannot meet; the
// job must fail with the deadline_exceeded code instead of hanging.
func TestJobTimeoutFailsCleanly(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond})
	id, resp := submit(t, hs.URL, SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "t1", Rounds: 5},
		{Type: "t1", Rounds: 5, Seed: 1},
	}})
	if id == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		sresp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Code   string `json:"code"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if st.Status == StatusFailed {
			if st.Code != CodeDeadlineExceeded {
				t.Fatalf("failure code %q (message %q), want %q", st.Code, st.Error, CodeDeadlineExceeded)
			}
			break
		}
		if st.Status == StatusDone {
			t.Fatal("job with a 1ns budget cannot finish")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The result endpoint reports the failure as a conflict.
	rresp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("failed job result status %d, want 409", rresp.StatusCode)
	}
}

// TestExecutionErrorFailsJob submits a program that validates but fails
// at run time (halts on an absent qubit), asserting structured failure.
func TestExecutionErrorFailsJob(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1})
	id, resp := submit(t, hs.URL, SubmitRequest{Experiments: []ExperimentRequest{
		{Type: "asm", Seed: 1, Rounds: 20, NumQubits: 1,
			Program: "mov r15, 400\nQNopReg r15\nMPG {q3}, 300\nMD {q3}, r7\nhalt\n"},
	}})
	if id == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		sresp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if st.Status == StatusFailed {
			if !strings.Contains(st.Error, "experiments[0]") {
				t.Fatalf("failure %q does not locate the experiment", st.Error)
			}
			return
		}
		if st.Status == StatusDone {
			t.Fatal("job must fail: the program measures an absent qubit")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
