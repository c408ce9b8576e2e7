package service

import (
	"strings"
	"testing"

	"quma/internal/expt"
)

// rabiScales returns the default Rabi sweep with its largest scale
// replaced by top.
func rabiScales(top float64) []float64 {
	s := expt.DefaultRabiParams().Scales
	return append(s[:len(s)-1:len(s)-1], top)
}

// TestValidatePulseAmplitudes pins the submit-time checks of what the
// machine would only reject in execution: pulse amplitudes over the DAC
// full scale (the standard library under amp_error, and each Rabi scale
// the sweep will run, the request's or the default ones) and negative
// delays. Values just inside each bound validate and run to done.
func TestValidatePulseAmplitudes(t *testing.T) {
	cases := []struct {
		name  string
		r     ExperimentRequest
		field string // "" when the request is accepted
	}{
		{"amp_error over the X180 bound", ExperimentRequest{Type: "t1", AmplitudeError: 0.12}, "amp_error"},
		{"amp_error just inside the X180 bound", ExperimentRequest{Type: "t1", AmplitudeError: 0.112}, ""},
		{"negative amp_error over the bound", ExperimentRequest{Type: "asm", Program: "halt", AmplitudeError: -2.3}, "amp_error"},
		{"rabi default scales with amp_error", ExperimentRequest{Type: "rabi", AmplitudeError: 0.02}, "amp_error"},
		{"rabi default scales just inside", ExperimentRequest{Type: "rabi", AmplitudeError: 0.01}, ""},
		{"rabi scale 2", ExperimentRequest{Type: "rabi", Scales: rabiScales(2)}, "scales"},
		{"rabi scale over the bound", ExperimentRequest{Type: "rabi", Scales: rabiScales(1.113)}, "scales"},
		{"rabi scale just inside", ExperimentRequest{Type: "rabi", Scales: rabiScales(1.112)}, ""},
		{"rabi scales with amp_error", ExperimentRequest{Type: "rabi", Scales: rabiScales(1.1), AmplitudeError: 0.02}, "scales"},
		{"negative delay", ExperimentRequest{Type: "t1", DelaysCycles: []int{0, 400, -800}}, "delays_cycles"},
		{"negative ramsey delay", ExperimentRequest{Type: "ramsey", DelaysCycles: []int{-1}}, "delays_cycles"},
		{"zero delay", ExperimentRequest{Type: "echo", DelaysCycles: []int{0, 400, 800}}, ""},
	}
	_, hs := startTestServer(t, Config{Workers: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := tc.r.Validate(0)
			if tc.field != "" {
				if len(errs) != 1 || errs[0].Field != tc.field || !strings.Contains(errs[0].Message, "must be non-negative") && !strings.Contains(errs[0].Message, "full scale") {
					t.Fatalf("errors %+v, want one %s error", errs, tc.field)
				}
				return
			}
			if len(errs) != 0 {
				t.Fatalf("rejected: %+v", errs)
			}
			r := tc.r
			r.Seed, r.Rounds = 1, 10
			id, resp := submit(t, hs.URL, SubmitRequest{Experiments: []ExperimentRequest{r}})
			if id == "" {
				t.Fatalf("submit status %d", resp.StatusCode)
			}
			waitDone(t, hs.URL, id)
		})
	}
}
