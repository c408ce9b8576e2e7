package service

// The kill-based crash-test harness. The parent test re-executes its
// own test binary as a real quma-serve-shaped server process (TestMain
// diverts on QUMA_CRASH_SERVER=1), drives it over HTTP, SIGKILLs it at
// fault-plan-chosen points — mid-sweep, mid-journal-append (torn
// write) — and restarts it on the same journal directory. The
// assertions are the durability contract:
//
//   - no accepted job is lost: every job reaches a terminal state after
//     recovery, under its original ID;
//   - recovered results are byte-identical to uncrashed direct
//     execution (the determinism contract is what makes at-least-once
//     re-execution exactly-once-observable);
//   - duplicate submissions dedupe across the restart via
//     Idempotency-Key;
//   - a torn journal tail truncates cleanly instead of failing startup;
//   - the error taxonomy is unchanged under journal faults.
//
// CI runs this file under -race (the child inherits the instrumented
// binary).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"quma/internal/expt"
	"quma/internal/faultinject"
	"quma/internal/journal"
)

func TestMain(m *testing.M) {
	if os.Getenv("QUMA_CRASH_SERVER") == "1" {
		runCrashServer()
		return
	}
	os.Exit(m.Run())
}

// runCrashServer is the child-process server: open (and so replay) the
// journal, optionally install deterministic fault hooks from the
// environment, announce the listen address on stdout, and serve until
// killed. It is intentionally quma-serve in miniature, inside the test
// binary so the crash suite needs no separate build step and runs under
// the same -race instrumentation.
func runCrashServer() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash-server:", err)
		os.Exit(1)
	}
	var diskFaults *journal.Faults
	if spec := os.Getenv("QUMA_DISK_FAULT"); spec != "" {
		kind, ordStr, ok := strings.Cut(spec, "=")
		ord, err := strconv.Atoi(ordStr)
		if !ok || err != nil {
			fail(fmt.Errorf("bad QUMA_DISK_FAULT %q", spec))
		}
		var plan faultinject.Plan
		switch kind {
		case "failappend":
			plan.FailJournalAppend = ord
		case "torn":
			plan.TornWrite = ord
		case "slowfsync":
			plan.SlowFsync = ord
		default:
			fail(fmt.Errorf("unknown disk fault %q", kind))
		}
		diskFaults = plan.JournalFaults()
	}
	jr, err := journal.Open(journal.Options{Dir: os.Getenv("QUMA_JOURNAL_DIR"), Faults: diskFaults})
	if err != nil {
		fail(err)
	}
	cfg := Config{Workers: 2, Journal: jr}
	if us := os.Getenv("QUMA_SLOW_SHOT_US"); us != "" {
		n, err := strconv.Atoi(us)
		if err != nil {
			fail(err)
		}
		// Slow every engine shot so the parent can reliably SIGKILL the
		// process mid-sweep. Sleeping perturbs nothing: result bytes are
		// a pure function of the request.
		cfg.Faults = &expt.FaultHooks{Shot: func(int) { time.Sleep(time.Duration(n) * time.Microsecond) }}
	}
	s := New(cfg).Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	fmt.Printf("CRASH_SERVER_ADDR=%s\n", ln.Addr())
	fail(http.Serve(ln, s.Handler()))
}

// crashProc is a handle on one child server incarnation.
type crashProc struct {
	t   *testing.T
	cmd *exec.Cmd
	url string
}

// startCrashServer launches the child on the given journal dir.
// faultSpec is "" or "kind=N" (failappend/torn/slowfsync); slowShotUS
// > 0 makes every engine shot sleep that many microseconds.
func startCrashServer(t *testing.T, dir, faultSpec string, slowShotUS int) *crashProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"QUMA_CRASH_SERVER=1",
		"QUMA_JOURNAL_DIR="+dir,
		"QUMA_DISK_FAULT="+faultSpec,
		"QUMA_SLOW_SHOT_US="+strconv.Itoa(slowShotUS),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &crashProc{t: t, cmd: cmd}
	t.Cleanup(p.kill)

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CRASH_SERVER_ADDR="); ok {
				addrc <- addr
				break
			}
		}
		io.Copy(io.Discard, stdout)
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			t.Fatal("crash server exited before announcing its address")
		}
		p.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("crash server did not announce an address")
	}
	return p
}

// kill SIGKILLs the child — the crash under test. Idempotent.
func (p *crashProc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.cmd.Wait()
}

// submitKeyed posts a batch with an optional Idempotency-Key, returning
// the job id and the HTTP status.
func submitKeyed(t *testing.T, base string, req SubmitRequest, key string) (string, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatalf("submit response %s: %v", b, err)
	}
	return acc.ID, resp.StatusCode
}

// waitStatus polls until the job reports one of the wanted statuses.
func waitStatus(t *testing.T, base, id string, deadline time.Duration, want ...string) string {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.Status == w {
				return st.Status
			}
		}
		if terminal(st.Status) {
			t.Fatalf("job %s reached %s (%s), want one of %v", id, st.Status, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v within %v", id, want, deadline)
	return ""
}

// directResults executes a batch on a fresh Env, returning the compact
// per-experiment result documents — the uncrashed reference bytes.
func directResults(t *testing.T, reqs []ExperimentRequest) [][]byte {
	t.Helper()
	env := expt.NewEnv()
	out := make([][]byte, len(reqs))
	for i, ex := range reqs {
		res, err := Execute(context.Background(), env, ex)
		if err != nil {
			t.Fatalf("direct experiments[%d]: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// assertResultsMatchDirect fetches a job's results and compares each
// (compacted) against direct execution of the same requests.
func assertResultsMatchDirect(t *testing.T, base, id string, reqs []ExperimentRequest) {
	t.Helper()
	body := fetchResult(t, base, id)
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != len(reqs) {
		t.Fatalf("job %s has %d results, want %d", id, len(doc.Results), len(reqs))
	}
	direct := directResults(t, reqs)
	for i := range reqs {
		var a, b bytes.Buffer
		if err := json.Compact(&a, doc.Results[i]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&b, direct[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("job %s experiments[%d] (%s): recovered result differs from uncrashed execution\nrecovered: %s\ndirect:    %s",
				id, i, reqs[i].Type, a.Bytes(), b.Bytes())
		}
	}
}

func healthz(t *testing.T, base string) healthJournal {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Journal *healthJournal `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Journal == nil {
		t.Fatal("healthz has no journal block on a journaled server")
	}
	return *h.Journal
}

// quickAsm builds a one-experiment asm batch (fast even under the slow
// hook) whose result is deterministic.
func quickAsm(seed int64) SubmitRequest {
	return SubmitRequest{Experiments: []ExperimentRequest{{
		Type: "asm", Seed: seed, Rounds: 30,
		Program: "mov r15, 400\nQNopReg r15\nPulse {q0}, X90\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n",
	}}}
}

// slowT1 is the SIGKILL victim: with the child's slow-shot hook and
// workers=1 in the request it stays mid-sweep for seconds, while the
// fault-free restarted child re-executes it in milliseconds.
func slowT1() SubmitRequest {
	return SubmitRequest{Experiments: []ExperimentRequest{{
		Type: "t1", Seed: 11, Backend: "trajectory", Rounds: 120, Workers: 1,
	}}}
}

// TestCrashRecoveryCompletesAcceptedJobs is the flagship crash test:
// kill a server holding a done job, a running job, and a queued job;
// restart it on the same journal; every job must reach done under its
// original ID with bytes identical to uncrashed execution, and a
// duplicate submission must dedupe to the original job across the
// restart.
func TestCrashRecoveryCompletesAcceptedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	p1 := startCrashServer(t, dir, "", 2000)

	// Job A completes before the crash; its journaled result bytes must
	// survive verbatim.
	doneReq := quickAsm(9)
	doneID, code := submitKeyed(t, p1.url, doneReq, "crash-done")
	if doneID == "" {
		t.Fatalf("submit done-job: status %d", code)
	}
	waitStatus(t, p1.url, doneID, time.Minute, StatusDone)
	preCrash := fetchResult(t, p1.url, doneID)

	// Job B is killed mid-sweep; job C dies queued behind it.
	runID, code := submitKeyed(t, p1.url, slowT1(), "crash-running")
	if runID == "" {
		t.Fatalf("submit running-job: status %d", code)
	}
	queuedReq := quickAsm(13)
	queuedID, code := submitKeyed(t, p1.url, queuedReq, "crash-queued")
	if queuedID == "" {
		t.Fatalf("submit queued-job: status %d", code)
	}
	waitStatus(t, p1.url, runID, time.Minute, StatusRunning)
	p1.kill() // SIGKILL mid-sweep: no drain, no journal close

	p2 := startCrashServer(t, dir, "", 0)
	h := healthz(t, p2.url)
	if h.RecoveredJobs < 3 || h.Reenqueued < 1 {
		t.Fatalf("healthz journal block %+v: want ≥3 recovered, ≥1 re-enqueued", h)
	}

	// Dedup across the restart: resubmitting with a used key returns the
	// original job (200, same id), not a new one.
	dupID, code := submitKeyed(t, p2.url, doneReq, "crash-done")
	if code != http.StatusOK || dupID != doneID {
		t.Fatalf("idempotent resubmit: got id %s status %d, want %s status 200", dupID, code, doneID)
	}
	dupRunID, code := submitKeyed(t, p2.url, slowT1(), "crash-running")
	if code != http.StatusOK || dupRunID != runID {
		t.Fatalf("idempotent resubmit of recovered job: got id %s status %d, want %s status 200", dupRunID, code, runID)
	}
	// Same key, different request: refused, not silently remapped.
	if _, code := submitKeyed(t, p2.url, quickAsm(77), "crash-done"); code != http.StatusConflict {
		t.Fatalf("idempotency key reuse with a different request: status %d, want 409", code)
	}

	// No accepted job is lost, and every recovered result is
	// byte-identical to an uncrashed run.
	waitStatus(t, p2.url, runID, 2*time.Minute, StatusDone)
	waitStatus(t, p2.url, queuedID, 2*time.Minute, StatusDone)
	if postCrash := fetchResult(t, p2.url, doneID); !bytes.Equal(preCrash, postCrash) {
		t.Fatalf("journaled result changed across the crash:\npre:  %s\npost: %s", preCrash, postCrash)
	}
	assertResultsMatchDirect(t, p2.url, runID, slowT1().Experiments)
	assertResultsMatchDirect(t, p2.url, queuedID, queuedReq.Experiments)
}

// TestCrashTornTailTruncatesCleanly tears the victim's terminal record
// mid-write (the torn-write fault lands on the done append), kills the
// server, and restarts: startup must repair the tail by truncation —
// never fail — demote the job to non-terminal, re-execute it, and
// reproduce the pre-crash bytes exactly.
func TestCrashTornTailTruncatesCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	// Appends for one job: accepted(1), running(2), done(3) — tear 3.
	p1 := startCrashServer(t, dir, "torn=3", 0)
	req := quickAsm(21)
	id, code := submitKeyed(t, p1.url, req, "torn-job")
	if id == "" {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, p1.url, id, time.Minute, StatusDone)
	preCrash := fetchResult(t, p1.url, id)
	p1.kill()

	p2 := startCrashServer(t, dir, "", 0)
	h := healthz(t, p2.url)
	if h.TruncatedBytes == 0 {
		t.Fatalf("healthz journal block %+v: torn tail was not truncated", h)
	}
	if h.Reenqueued != 1 {
		t.Fatalf("healthz journal block %+v: torn-terminal job was not re-enqueued", h)
	}
	waitStatus(t, p2.url, id, time.Minute, StatusDone)
	if postCrash := fetchResult(t, p2.url, id); !bytes.Equal(preCrash, postCrash) {
		t.Fatalf("re-executed result differs from the pre-crash bytes:\npre:  %s\npost: %s", preCrash, postCrash)
	}
}

// TestCrashUnderSlowFsync pins that durability latency is only latency:
// with every fsync slowed, jobs still complete, survive a SIGKILL, and
// recover byte-identically.
func TestCrashUnderSlowFsync(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	p1 := startCrashServer(t, dir, "slowfsync=1", 0)
	req := quickAsm(33)
	id, code := submitKeyed(t, p1.url, req, "")
	if id == "" {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, p1.url, id, time.Minute, StatusDone)
	pre := fetchResult(t, p1.url, id)
	p1.kill()
	p2 := startCrashServer(t, dir, "", 0)
	waitStatus(t, p2.url, id, time.Minute, StatusDone)
	if post := fetchResult(t, p2.url, id); !bytes.Equal(pre, post) {
		t.Fatal("result changed across crash under slow fsync")
	}
}

// TestJournalAppendFailureKeepsTaxonomy: an injected failure of the
// accepted-record append must reject that submission with the stable
// `internal` code and reason journal_append_failed — and the server
// must keep serving: the next submission succeeds with bytes identical
// to a journal-less server.
func TestJournalAppendFailureKeepsTaxonomy(t *testing.T) {
	dir := t.TempDir()
	jr, err := journal.Open(journal.Options{Dir: dir, Faults: faultinject.Plan{FailJournalAppend: 1}.JournalFaults()})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	s := New(Config{Workers: 1, Journal: jr}).Start()
	defer s.Drain()
	hs := httpTestServer(t, s)

	req := quickAsm(41)
	body, _ := json.Marshal(req)
	resp, b := postJSON(t, hs+"/v1/jobs", string(body))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with failing journal: status %d body %s, want 500", resp.StatusCode, b)
	}
	var e struct {
		Error struct {
			Code   string `json:"code"`
			Reason string `json:"reason"`
		} `json:"error"`
	}
	if err := json.Unmarshal(b, &e); err != nil || e.Error.Code != CodeInternal || e.Error.Reason != "journal_append_failed" {
		t.Fatalf("want internal/journal_append_failed, got %s (err %v)", b, err)
	}

	// The fault ordinal has passed: the server keeps accepting work.
	id, code := submitKeyed(t, hs, req, "")
	if id == "" {
		t.Fatalf("post-fault submit: status %d", code)
	}
	waitStatus(t, hs, id, time.Minute, StatusDone)
	assertResultsMatchDirect(t, hs, id, req.Experiments)
}

// httpTestServer mounts a started server on an httptest listener and
// returns its base URL.
func httpTestServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

// TestJournalDoesNotPerturbResults is the journal-off regression guard:
// the same batch served with and without a journal must produce
// byte-identical result documents — durability may never leak into
// result bytes.
func TestJournalDoesNotPerturbResults(t *testing.T) {
	jr, err := journal.Open(journal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	journaled := New(Config{Workers: 2, Journal: jr}).Start()
	defer journaled.Drain()
	plain := New(Config{Workers: 2}).Start()
	defer plain.Drain()
	ju, pu := httpTestServer(t, journaled), httpTestServer(t, plain)

	req := testBatch()
	jid, code := submitKeyed(t, ju, req, "perturb-check")
	if jid == "" {
		t.Fatalf("journaled submit: status %d", code)
	}
	pid, code := submitKeyed(t, pu, req, "")
	if pid == "" {
		t.Fatalf("plain submit: status %d", code)
	}
	waitStatus(t, ju, jid, 2*time.Minute, StatusDone)
	waitStatus(t, pu, pid, 2*time.Minute, StatusDone)
	jb, pb := fetchResult(t, ju, jid), fetchResult(t, pu, pid)
	if !bytes.Equal(jb, pb) {
		t.Fatalf("journaled result differs from journal-off result:\nwith:    %s\nwithout: %s", jb, pb)
	}
}

// TestRecoveredTerminalJobsCountTowardRetention: recovered jobs occupy
// retention slots exactly like live ones — restarts never grow the
// retained set or the journal without bound.
func TestRecoveredTerminalJobsCountTowardRetention(t *testing.T) {
	dir := t.TempDir()

	// Distinct seeds per submission: identical batches would be served
	// from the result cache instead of creating (and evicting) jobs.
	runOne := func(base string, seed int64) string {
		id, code := submitKeyed(t, base, quickAsm(seed), "")
		if id == "" {
			t.Fatalf("submit: status %d", code)
		}
		waitStatus(t, base, id, time.Minute, StatusDone)
		return id
	}
	get := func(base, id string) int {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, MaxRetainedJobs: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)
	id1 := runOne(base, 55)
	id2 := runOne(base, 56) // evicts id1
	if got := get(base, id1); got != http.StatusNotFound {
		t.Fatalf("evicted job pre-restart: status %d, want 404", got)
	}
	s.Drain()
	jr.Close()

	// Restart: the eviction held (journal tombstone), the survivor is
	// queryable, and it occupies the single retention slot.
	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, MaxRetainedJobs: 1, Journal: jr2}).Start()
	base2 := httpTestServer(t, s2)
	if got := get(base2, id1); got != http.StatusNotFound {
		t.Fatalf("evicted job post-restart: status %d, want 404", got)
	}
	if got := get(base2, id2); got != http.StatusOK {
		t.Fatalf("retained job post-restart: status %d, want 200", got)
	}
	fetchResult(t, base2, id2)
	// A recovered terminal job is evicted by new work like a live one.
	id3 := runOne(base2, 57)
	if got := get(base2, id2); got != http.StatusNotFound {
		t.Fatalf("recovered job not evicted by new work: status %d, want 404", got)
	}
	if got := get(base2, id3); got != http.StatusOK {
		t.Fatalf("new job after recovery: status %d, want 200", got)
	}
	s2.Drain()
	jr2.Close()

	// Many restarts stay bounded: the journal's live state never exceeds
	// retention + in-flight.
	for i := 0; i < 3; i++ {
		jrN, err := journal.Open(journal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sN := New(Config{Workers: 1, MaxRetainedJobs: 1, Journal: jrN}).Start()
		baseN := httpTestServer(t, sN)
		runOne(baseN, int64(60+i))
		sN.Drain()
		if n := len(jrN.States()); n > 2 {
			t.Fatalf("journal holds %d jobs after restart %d; retention is not bounding recovery", n, i)
		}
		jrN.Close()
	}
}

// TestStreamReconnectResumesWithLastEventID covers the SSE reconnect
// contract: events carry monotonic ids, a reconnect with Last-Event-ID
// resumes after that id without duplicates, and a stale (too-large) id
// still receives the terminal event.
func TestStreamReconnectResumesWithLastEventID(t *testing.T) {
	_, hs := startTestServer(t, Config{Workers: 1})
	req := SubmitRequest{Experiments: []ExperimentRequest{
		quickAsm(61).Experiments[0],
		quickAsm(62).Experiments[0],
	}}
	id, resp := submit(t, hs.URL, req)
	if id == "" {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitDone(t, hs.URL, id)

	type sse struct {
		id int
		ev progressEvent
	}
	readStream := func(lastEventID string) []sse {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+id+"/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			hreq.Header.Set("Last-Event-ID", lastEventID)
		}
		sresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		var out []sse
		var cur sse
		sc := bufio.NewScanner(sresp.Body)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "id: "); ok {
				cur.id, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				if err := json.Unmarshal([]byte(v), &cur.ev); err != nil {
					t.Fatalf("bad SSE payload %q: %v", v, err)
				}
				out = append(out, cur)
				if terminal(cur.ev.Status) {
					break
				}
			}
		}
		return out
	}

	// Full history: ids must be 1..n strictly increasing, ending done.
	full := readStream("")
	if len(full) < 3 {
		t.Fatalf("full stream has %d events, want queued/running/.../done", len(full))
	}
	for i, e := range full {
		if e.id != i+1 {
			t.Fatalf("event %d has id %d, want %d", i, e.id, i+1)
		}
	}
	last := full[len(full)-1]
	if last.ev.Status != StatusDone || last.ev.Completed != 2 {
		t.Fatalf("terminal event %+v, want done 2/2", last)
	}

	// Resume after id 2: exactly the tail, no duplicates.
	tail := readStream("2")
	if len(tail) != len(full)-2 {
		t.Fatalf("resume from 2 delivered %d events, want %d", len(tail), len(full)-2)
	}
	for i, e := range tail {
		if e.id != full[i+2].id || e.ev != full[i+2].ev {
			t.Fatalf("resumed event %d = %+v, want %+v", i, e, full[i+2])
		}
	}

	// A stale id from a previous incarnation: the terminal event still
	// arrives, with an id above the client's.
	stale := readStream("999")
	if len(stale) != 1 || stale[0].ev.Status != StatusDone || stale[0].id <= 999 {
		t.Fatalf("stale reconnect got %+v, want one terminal event with id > 999", stale)
	}
}

// TestCacheHitsSurviveCrash is the durability half of the result-cache
// contract: the content-addressed index is rebuilt from the journal at
// recovery, so an unkeyed resubmission after a SIGKILL is answered
// terminal-immediately with the pre-crash job's exact bytes — no
// re-execution, no byte drift.
func TestCacheHitsSurviveCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	req := quickAsm(70)

	p1 := startCrashServer(t, dir, "", 0)
	id1, code := submitKeyed(t, p1.url, req, "")
	if id1 == "" {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, p1.url, id1, time.Minute, StatusDone)
	pre := fetchResult(t, p1.url, id1)
	// Warm sanity: the live server already serves this form from cache.
	if hitID, code := submitKeyed(t, p1.url, req, ""); code != http.StatusOK || hitID != id1 {
		t.Fatalf("pre-crash resubmit: status %d id %s, want 200 %s", code, hitID, id1)
	}
	p1.kill()

	p2 := startCrashServer(t, dir, "", 0)
	hitID, code := submitKeyed(t, p2.url, req, "")
	if code != http.StatusOK || hitID != id1 {
		t.Fatalf("post-crash resubmit: status %d id %s, want 200 cache hit on %s", code, hitID, id1)
	}
	if post := fetchResult(t, p2.url, hitID); !bytes.Equal(post, pre) {
		t.Fatalf("post-crash cached result differs from pre-crash bytes:\npre:  %s\npost: %s", pre, post)
	}
}

// TestCacheEvictionConsistentAcrossRestart drives cache × retention ×
// recovery: a form evicted from the retention window must miss (and
// re-execute byte-identically) both before and after a restart, while
// the retained form keeps hitting — the rebuilt index tracks exactly
// the recovered retention window, never a stale superset.
func TestCacheEvictionConsistentAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reqA, reqB := quickAsm(71), quickAsm(72)

	jr, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, MaxRetainedJobs: 1, Journal: jr}).Start()
	base := httpTestServer(t, s)
	idA, _ := submitKeyed(t, base, reqA, "")
	waitStatus(t, base, idA, time.Minute, StatusDone)
	bytesA := fetchResult(t, base, idA)
	idB, _ := submitKeyed(t, base, reqB, "")
	waitStatus(t, base, idB, time.Minute, StatusDone) // evicts A

	// A's eviction invalidated its cache entry: resubmitting is a miss
	// that re-executes to the identical bytes (and re-enters the window,
	// evicting B in turn).
	idA2, code := submitKeyed(t, base, reqA, "")
	if code != http.StatusAccepted {
		t.Fatalf("evicted form pre-restart: status %d, want 202", code)
	}
	waitStatus(t, base, idA2, time.Minute, StatusDone)
	if got := fetchResult(t, base, idA2); !bytes.Equal(got, bytesA) {
		t.Fatal("re-executed result differs from the evicted original")
	}
	s.Drain()
	jr.Close()

	// Restart: only the retained window (the re-executed A) is indexed.
	jr2, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, MaxRetainedJobs: 1, Journal: jr2}).Start()
	defer jr2.Close()
	defer s2.Drain()
	base2 := httpTestServer(t, s2)

	hitID, code := submitKeyed(t, base2, reqA, "")
	if code != http.StatusOK || hitID != idA2 {
		t.Fatalf("retained form post-restart: status %d id %s, want 200 hit on %s", code, hitID, idA2)
	}
	if got := fetchResult(t, base2, hitID); !bytes.Equal(got, bytesA) {
		t.Fatal("post-restart cached result differs from original bytes")
	}
	if idB2, code := submitKeyed(t, base2, reqB, ""); code != http.StatusAccepted {
		t.Fatalf("evicted form post-restart: status %d, want 202 (miss)", code)
	} else {
		waitStatus(t, base2, idB2, time.Minute, StatusDone)
	}
}
