package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// maxConns bounds the HTTP connections of the load: each closed-loop
// client holds at most one at a time (its requests are sequential).
const maxConns = 2

// client drives the service HTTP API, the one quma-serve serves.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a submission the server turned away (429 or 5xx).
type errRefused struct{ code int }

func (e errRefused) Error() string { return fmt.Sprintf("submission refused with HTTP %d", e.code) }

// jobTiming is one job's client-side timeline: POST sent (start), POST
// answered (posted), the SSE "running" event (running), the terminal
// event (done), the result GET sent (fetch), and its last byte (end). A
// cache hit is answered done by the POST itself, so running = done =
// posted.
type jobTiming struct {
	start, posted, running, done, fetch, end time.Time
	hit                                      bool
	body                                     []byte
}

func (jt jobTiming) latency() time.Duration { return jt.end.Sub(jt.start) }

// runJob submits one batch, follows its SSE stream to a terminal state,
// and fetches the result. A job that ends in any state but done is an
// error.
func (c *client) runJob(ctx context.Context, body []byte) (jobTiming, error) {
	var jt jobTiming
	jt.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return jt, fmt.Errorf("submit: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.posted = time.Now()
	if err != nil {
		return jt, fmt.Errorf("submit: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return jt, errRefused{resp.StatusCode}
	default:
		return jt, fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Cache  string `json:"cache"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return jt, fmt.Errorf("submit response: %w", err)
	}
	jt.hit = sub.Cache == "hit"
	jt.running, jt.done = jt.posted, jt.posted
	status := sub.Status
	if !terminalStatus(status) {
		if status, err = c.follow(ctx, sub.ID, &jt); err != nil {
			return jt, err
		}
	}
	if status != "done" {
		return jt, fmt.Errorf("job %s ended %s", sub.ID, status)
	}
	jt.fetch = time.Now()
	jt.body, err = c.get(ctx, "/v1/jobs/"+sub.ID+"/result")
	jt.end = time.Now()
	return jt, err
}

func terminalStatus(s string) bool { return s == "done" || s == "failed" || s == "canceled" }

// follow reads the job's SSE progress stream until a terminal event,
// stamping the first "running" and the terminal event's arrival.
func (c *client) follow(ctx context.Context, id string, jt *jobTiming) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: %s", resp.Status)
	}
	sawRunning := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("stream event: %w", err)
		}
		now := time.Now()
		if ev.Status == "running" && !sawRunning {
			jt.running, sawRunning = now, true
		}
		if terminalStatus(ev.Status) {
			jt.done = now
			if !sawRunning {
				jt.running = now
			}
			// Drain the closed stream so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("stream: %w", err)
	}
	return "", fmt.Errorf("stream of %s ended before a terminal event", id)
}

// get fetches a path and returns the whole body of a 200 response.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

// compactJSON returns b with insignificant whitespace removed, so two
// encodings of one document compare byte for byte.
func compactJSON(b []byte) ([]byte, error) {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// removeAll deletes a scratch directory, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "qumabench:", err)
	}
}
