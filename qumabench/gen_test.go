package main

import (
	"reflect"
	"testing"

	"quma/internal/service"
)

func stream(seed int64, client int, tmpl jobTemplate, n int) []jobSpec {
	g := newJobGen(seed, client, tmpl)
	out := make([]jobSpec, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestJobStreamIsAFunctionOfTheSeed(t *testing.T) {
	for name, tmpl := range map[string]jobTemplate{"rb": rbJob(7), "repcode": repCodeJob} {
		a, b := stream(42, 0, tmpl, 200), stream(42, 0, tmpl, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different job streams", name)
		}
		if reflect.DeepEqual(a, stream(43, 0, tmpl, 200)) {
			t.Errorf("%s: different seeds gave the same job stream", name)
		}
		if reflect.DeepEqual(a, stream(42, 1, tmpl, 200)) {
			t.Errorf("%s: two clients share one job stream", name)
		}
	}
}

func TestRepeatsTargetRetiredFreshJobs(t *testing.T) {
	jobs := stream(1, 0, repCodeJob, 2000)
	fresh := make(map[int][]service.ExperimentRequest)
	repeats := 0
	for _, j := range jobs {
		if j.RepeatOf < 0 {
			fresh[j.Index] = j.Reqs
			continue
		}
		repeats++
		orig, ok := fresh[j.RepeatOf]
		if !ok {
			t.Fatalf("job %d repeats %d, which is not an earlier fresh job", j.Index, j.RepeatOf)
		}
		if j.Index-j.RepeatOf < repeatLag {
			t.Errorf("job %d repeats job %d, closer than %d", j.Index, j.RepeatOf, repeatLag)
		}
		if !reflect.DeepEqual(orig, j.Reqs) {
			t.Errorf("job %d is not the same request as job %d", j.Index, j.RepeatOf)
		}
	}
	if share := float64(repeats) / float64(len(jobs)); share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
}

func TestRequestsValidateAndSeedsAreNonNegative(t *testing.T) {
	for name, tmpl := range map[string]jobTemplate{"rb": rbJob(-7), "repcode": repCodeJob} {
		for _, j := range stream(-5, 0, tmpl, 50) {
			for i, r := range j.Reqs {
				if errs := r.Validate(i); len(errs) > 0 {
					t.Fatalf("%s job %d: %v", name, j.Index, errs)
				}
			}
		}
	}
}
