package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// decodeSubmit decodes a POST /v1/jobs body the way handleSubmit does:
// one JSON value, unknown fields rejected.
func decodeSubmit(data []byte) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzCanonicalRequest fuzzes the submit path up to the request hash:
// decode, Validate, canonicalExperiments. The contract under fuzzing:
//
//   - No input panics: malformed JSON is a decode error and a malformed
//     request is a list of field errors.
//   - Canonicalization is idempotent: a valid request's canonical bytes
//     decode (unknown fields still rejected) to a batch that validates
//     again and re-canonicalizes to the same bytes.
//   - The request hash is stable under re-marshal: decoding the
//     canonical bytes and marshaling them again gives the same hash.
//
// The journal re-executes canonical bytes at recovery and the result
// cache keys on their hash, so either property failing would split one
// request into two cache entries or replay a different request.
func FuzzCanonicalRequest(f *testing.F) {
	batch, err := os.ReadFile("../../testdata/serve_once_batch.json")
	if err != nil {
		f.Fatal(err)
	}
	test, err := json.Marshal(testBatch())
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		string(batch),
		string(test),
		``,
		`{}`,
		`{"experiments": []}`,
		`{"experiments": [{}]}`,
		`{"experiments": [{"type": "t1"}]}`,
		`{"experiments": [{"type": "t1", "rounds": 99999999999999999999}]}`,
		`{"experiments": [{"type": "t1", "seed": 9223372036854775807, "rounds": 1000000000}]}`,
		`{"experiments": [{"type": "rb", "seed": -5, "lengths": [-1, 2, 3], "trials": -2}]}`,
		`{"experiments": [{"type": "rb", "lengths": [1, 2, 100000000]}]}`,
		`{"experiments": [{"type": "asm", "qubit": -1, "num_qubits": -3, "program": "halt"}]}`,
		`{"experiments": [{"type": "t1", "amp_error": -0, "t1_sec": 1e308, "t2_sec": 1e-400, "detuning_hz": -1.5e300}]}`,
		`{"experiments": [{"type": "t1", "bogus": 1}]}`,
		`{"experiments": [{"type": "t1"}], "extra": true}`,
		`{"experiments": [{"type": "rabi", "scales": [0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], "workers": 3, "batch_lanes": 8}]}`,
		`{"experiments": [{"type": "asm", "program": "Pulse {q0}, X90 <&>\nhalt\n"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeSubmit(data)
		if err != nil || len(req.Experiments) == 0 {
			return
		}
		for i, ex := range req.Experiments {
			if len(ex.Validate(i)) > 0 {
				return
			}
		}
		canon, err := canonicalExperiments(req.Experiments)
		if err != nil {
			t.Fatalf("canonicalizing a valid request: %v", err)
		}

		var again []ExperimentRequest
		dec := json.NewDecoder(bytes.NewReader(canon))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&again); err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, canon)
		}
		for i, ex := range again {
			if errs := ex.Validate(i); len(errs) > 0 {
				t.Fatalf("canonical request no longer validates: %v\n%s", errs, canon)
			}
		}
		recanon, err := canonicalExperiments(again)
		if err != nil {
			t.Fatalf("re-canonicalizing: %v", err)
		}
		if !bytes.Equal(recanon, canon) {
			t.Fatalf("canonicalization is not idempotent:\n%s\n%s", canon, recanon)
		}
		remarshal, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshaling: %v", err)
		}
		if hashBytes(remarshal) != hashBytes(canon) {
			t.Fatalf("hash changed under decode and re-marshal:\n%s\n%s", canon, remarshal)
		}
	})
}
