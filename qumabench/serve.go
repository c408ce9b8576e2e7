package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"quma/internal/expt"
	"quma/internal/journal"
	"quma/internal/service"
)

// servedJob is one job of a closed loop with its client-side timeline.
type servedJob struct {
	spec   jobSpec
	timing jobTiming
}

// serveRun is what one closed-loop window produced.
type serveRun struct {
	jobs    []servedJob
	refused int
}

// loopClient is one closed-loop client's state, kept across windows.
type loopClient struct {
	id      int
	gen     *jobGen
	digests map[int]string // fresh job index -> digest of its result bytes
}

func newLoopClients(seed int64, n int, tmpl jobTemplate) []*loopClient {
	cs := make([]*loopClient, n)
	for i := range cs {
		cs[i] = &loopClient{id: i, gen: newJobGen(seed, i, tmpl), digests: make(map[int]string)}
	}
	return cs
}

// closedLoop runs every client for d (and at least minJobs jobs each),
// one goroutine per client, each submitting, following and fetching one
// job at a time. Every job's served bytes are checked as they arrive.
func closedLoop(ctx context.Context, b *bench, cl *client, clients []*loopClient, d time.Duration, minJobs int, tr *tracer) serveRun {
	type clientRun struct {
		jobs              []servedJob
		attempted, failed int
		refused           int
		fails             []string
	}
	runs := make([]clientRun, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, lc := range clients {
		wg.Add(1)
		go func(r *clientRun, lc *loopClient) {
			defer wg.Done()
			for n := 0; n < minJobs || time.Since(start) < d; n++ {
				spec := lc.gen.next()
				r.attempted++
				body, err := json.Marshal(service.SubmitRequest{Experiments: spec.Reqs})
				if err != nil {
					r.failed++
					r.fails = append(r.fails, err.Error())
					continue
				}
				jt, err := cl.runJob(ctx, body)
				if err == nil {
					err = lc.verify(spec, jt)
				}
				if err != nil {
					var ref errRefused
					if errors.As(err, &ref) {
						r.refused++
					}
					r.failed++
					r.fails = append(r.fails, fmt.Sprintf("client %d job %d: %v", lc.id, spec.Index, err))
					continue
				}
				r.jobs = append(r.jobs, servedJob{spec: spec, timing: jt})
				traceJob(tr, jt)
			}
		}(&runs[i], lc)
	}
	wg.Wait()
	var out serveRun
	for _, r := range runs {
		b.attempted += r.attempted
		b.failed += r.failed
		out.refused += r.refused
		out.jobs = append(out.jobs, r.jobs...)
		for _, f := range r.fails {
			fmt.Fprintln(b.out, "FAIL", f)
		}
	}
	return out
}

// traceJob records a job's timeline as a root span with one child per
// service stage.
func traceJob(tr *tracer, jt jobTiming) {
	if tr == nil {
		return
	}
	if jt.hit {
		root := tr.add("job.hit", 0, jt.start, jt.end)
		tr.add("service.hit", root, jt.start, jt.posted)
		tr.add("service.result", root, jt.fetch, jt.end)
		return
	}
	root := tr.add("job", 0, jt.start, jt.end)
	tr.add("service.submit", root, jt.start, jt.posted)
	tr.add("service.queue_wait", root, jt.posted, jt.running)
	tr.add("service.execute", root, jt.running, jt.done)
	tr.add("service.result", root, jt.fetch, jt.end)
}

// verify checks one served result: physics sanity of every experiment,
// and for a repeat, byte identity with the result of the request it
// repeats.
func (lc *loopClient) verify(spec jobSpec, jt jobTiming) error {
	if err := checkServed(jt.body); err != nil {
		return err
	}
	d := digest(jt.body)
	if spec.RepeatOf >= 0 {
		if want, ok := lc.digests[spec.RepeatOf]; ok && want != d {
			return fmt.Errorf("repeat of job %d served different bytes (%s, first %s)", spec.RepeatOf, d, want)
		}
		return nil
	}
	lc.digests[spec.Index] = d
	return nil
}

// checkServed applies the physics sanity bounds to a served result
// document.
func checkServed(body []byte) error {
	var doc struct {
		Results []struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	for i, r := range doc.Results {
		if r.Type != "rb" {
			continue
		}
		var v expt.RBResult
		err := json.Unmarshal(r.Result, &v)
		if err == nil {
			err = rbSane(&v)
		}
		if err != nil {
			return fmt.Errorf("experiment %d (%s): %w", i, r.Type, err)
		}
	}
	return nil
}

// gateService is the correctness gate of the service window: print the
// digest of the client's first fresh jobs, and check the first served
// document against service.Execute of the same requests.
func gateService(ctx context.Context, b *bench, lc *loopClient, jobs []servedJob) {
	h := sha256.New()
	n := 0
	for i := 0; i < digestOps; i++ {
		if d, ok := lc.digests[i]; ok {
			h.Write([]byte(d))
			n++
		}
	}
	fmt.Fprintf(b.out, "digest service workload=%s seed=%d fresh_jobs=%d sha256=%s\n", b.workload, b.seed, n, hex.EncodeToString(h.Sum(nil))[:16])
	if len(jobs) == 0 || jobs[0].spec.Index != 0 {
		b.problem("the service window served no first job to check")
		return
	}
	want, err := executeDoc(ctx, expt.NewEnv(), freshReqs(lc.gen, 0))
	if err != nil {
		b.failed++
		b.problem("service.Execute of job 0: %v", err)
		return
	}
	got, err := compactJSON(jobs[0].timing.body)
	match := err == nil && string(got) == string(want)
	fmt.Fprintf(b.out, "reference service job=0 served=%s execute=%s match=%v\n", digest(got), digest(want), match)
	if !match {
		b.failed++
		b.problem("job 0: served bytes differ from service.Execute")
	}
}

// freshReqs returns the requests of fresh job i of a client's stream.
func freshReqs(g *jobGen, i int) []service.ExperimentRequest {
	return g.tmpl(expt.DeriveSeed(g.seed, i))
}

// executeDoc runs a job's requests through service.Execute and returns
// the compacted result document the server would serve for them.
func executeDoc(ctx context.Context, env *expt.Env, reqs []service.ExperimentRequest) ([]byte, error) {
	results := make([]json.RawMessage, len(reqs))
	for i, r := range reqs {
		res, err := service.Execute(ctx, env, r)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	doc, err := json.Marshal(struct {
		Results []json.RawMessage `json:"results"`
	}{results})
	if err != nil {
		return nil, err
	}
	return compactJSON(doc)
}

// inprocService drives the workload's own experiment through an
// in-process service (one worker, journaled) over loopback for d, with
// one closed-loop client, so the service layers are measured on every
// workload. It ends with a cache hit if the stream produced none.
func inprocService(ctx context.Context, b *bench, tr *tracer, d time.Duration) ([]servedJob, int, error) {
	jdir, err := os.MkdirTemp(b.workDir, "service-journal-")
	if err != nil {
		return nil, 0, err
	}
	defer removeAll(jdir)
	jr, err := journal.Open(journal.Options{Dir: jdir})
	if err != nil {
		return nil, 0, err
	}
	defer jr.Close()
	srv := service.New(service.Config{Workers: 1, Journal: jr}).Start()
	defer srv.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		<-served
	}()
	cl := newClient("http://" + ln.Addr().String())
	defer cl.close()

	clients := newLoopClients(b.seed, 1, b.job)
	run := closedLoop(ctx, b, cl, clients, d, 8, tr)
	gateService(ctx, b, clients[0], run.jobs)
	for _, j := range run.jobs {
		if j.timing.hit {
			return run.jobs, run.refused, nil
		}
	}
	body, err := json.Marshal(service.SubmitRequest{Experiments: freshReqs(clients[0].gen, 0)})
	if err != nil {
		return nil, 0, err
	}
	b.attempted++
	jt, err := cl.runJob(ctx, body)
	if err != nil {
		b.failed++
		return nil, 0, err
	}
	spec := jobSpec{Index: -1, Reqs: freshReqs(clients[0].gen, 0), RepeatOf: 0}
	if !jt.hit {
		b.problem("resubmitting an identical request was not a cache hit")
	}
	if err := clients[0].verify(spec, jt); err != nil {
		b.failed++
		b.problem("cache hit: %v", err)
	}
	traceJob(tr, jt)
	return append(run.jobs, servedJob{spec: spec, timing: jt}), run.refused, nil
}
