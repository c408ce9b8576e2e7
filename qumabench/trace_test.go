package main

import (
	"path/filepath"
	"testing"
	"time"
)

func findLayer(t *testing.T, lts []layerTime, name string) layerTime {
	t.Helper()
	for _, lt := range lts {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("no layer %q in %+v", name, lts)
	return layerTime{}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "execute", Start: 20 * ms, End: 70 * ms},
		// Overlaps execute: the union, not the sum, is covered.
		{ID: 4, Parent: 1, Name: "result", Start: 60 * ms, End: 80 * ms},
		// Runs past its parent: only the part inside counts.
		{ID: 5, Parent: 3, Name: "kernel", Start: 65 * ms, End: 90 * ms},
		{ID: 6, Name: "job", Start: 200 * ms, End: 230 * ms},
	}
	lts := selfTimes(spans)
	job := findLayer(t, lts, "job")
	// Job 1 covers 0-10 and 20-80 by its children: self 100-70 = 30.
	// Job 6 has no children: self 30.
	if job.Count != 2 || job.Total != 130*ms || job.Self != 60*ms {
		t.Errorf("job = %+v, want count 2, total 130ms, self 60ms", job)
	}
	if ex := findLayer(t, lts, "execute"); ex.Self != 45*ms {
		t.Errorf("execute self = %v, want 45ms (50ms minus the 5ms of kernel inside it)", ex.Self)
	}
	if k := findLayer(t, lts, "kernel"); k.Self != 25*ms {
		t.Errorf("kernel self = %v, want its whole 25ms", k.Self)
	}
	if lts[0].Self < lts[len(lts)-1].Self {
		t.Error("layers are not sorted by descending self time")
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("layers", 0)
	t0 := time.Now()
	child := tr.add("call", root, t0, t0.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[root-1].End < spans[root-1].Start {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	tr.end(0)
	if tr.add("x", 0, time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer must record nothing")
	}
}
