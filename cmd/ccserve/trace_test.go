package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"ccolor/internal/promtext"
	"ccolor/internal/server"
)

func TestTraceEndpointFlow(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})

	// Fresh synchronous solve: the X-Trace-Id header addresses the trace.
	rec := post(t, h, "/v1/solve", `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":21}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("color: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Fatal("fresh solve response has no X-Trace-Id header")
	}

	// Cache hit: no trace, the header stays off.
	rec = post(t, h, "/v1/solve", `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":21}}`)
	if got := rec.Header().Get("X-CCServe-Cache"); got != "hit" {
		t.Fatalf("cache header %q, want hit", got)
	}
	if id := rec.Header().Get("X-Trace-Id"); id != "" {
		t.Fatalf("cache hit carries X-Trace-Id %q", id)
	}

	// Async job: the trace is queryable at /v1/jobs/{id}/trace.
	rec = post(t, h, "/v1/solve", `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":22},"async":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", rec.Code, rec.Body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var env JobEnvelope
	for {
		rec = get(t, h, "/v1/jobs/"+accepted.JobID)
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.State == string(server.StateDone) {
			break
		}
		if env.State == string(server.StateFailed) || time.Now().After(deadline) {
			t.Fatalf("job stuck/failed in state %s: %s", env.State, env.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = get(t, h, "/v1/jobs/"+accepted.JobID+"/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace lookup: %d %s", rec.Code, rec.Body)
	}
	var tenv TraceEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &tenv); err != nil {
		t.Fatal(err)
	}
	if tenv.JobID != accepted.JobID || tenv.TraceID == "" || tenv.Trace == nil {
		t.Fatalf("trace envelope incomplete: %s", rec.Body)
	}
	if tenv.Trace.Rounds != env.Result.Rounds {
		t.Fatalf("trace rounds %d != job report rounds %d", tenv.Trace.Rounds, env.Result.Rounds)
	}
	if len(tenv.Trace.Spans) == 0 {
		t.Fatal("trace has no spans")
	}

	if rec := get(t, h, "/v1/jobs/nope/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job trace: %d", rec.Code)
	}
}

func TestTraceEndpointEvictionAndDisabled(t *testing.T) {
	// Retention 1: the second fresh solve evicts the first job's trace.
	h, _ := newTestHandler(t, server.Config{Workers: 1, QueueDepth: 16, TraceRetention: 1})
	submit := func(seed int) string {
		body := `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":` + string(rune('0'+seed)) + `},"async":true}`
		rec := post(t, h, "/v1/solve", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		var accepted struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			rec := get(t, h, "/v1/jobs/"+accepted.JobID)
			var env JobEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.State == string(server.StateDone) {
				return accepted.JobID
			}
			if env.State == string(server.StateFailed) || time.Now().After(deadline) {
				t.Fatalf("job stuck/failed: %s", env.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	first := submit(1)
	second := submit(2)
	if rec := get(t, h, "/v1/jobs/"+first+"/trace"); rec.Code != http.StatusGone {
		t.Fatalf("evicted trace: %d, want 410 Gone", rec.Code)
	}
	if rec := get(t, h, "/v1/jobs/"+second+"/trace"); rec.Code != http.StatusOK {
		t.Fatalf("retained trace: %d", rec.Code)
	}

	// Negative retention disables tracing: 404, and no X-Trace-Id header.
	h2, _ := newTestHandler(t, server.Config{Workers: 1, QueueDepth: 16, TraceRetention: -1})
	rec := post(t, h2, "/v1/solve", `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":9}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("color: %d", rec.Code)
	}
	if id := rec.Header().Get("X-Trace-Id"); id != "" {
		t.Fatalf("tracing disabled but X-Trace-Id %q set", id)
	}
}

func TestPrometheusEndpoints(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 8})
	if rec := post(t, h, "/v1/solve", gnpBody); rec.Code != http.StatusOK {
		t.Fatalf("color: %d", rec.Code)
	}

	for _, path := range []string{"/metrics/prom", "/metrics?format=prom"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s content type %q", path, ct)
		}
		if probs := promtext.Lint(bytes.NewReader(rec.Body.Bytes())); len(probs) != 0 {
			t.Fatalf("%s lint problems: %v\n%s", path, probs, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `ccserve_jobs_total{model="cclique"} 1`) {
			t.Fatalf("%s missing job counter:\n%s", path, rec.Body)
		}
	}

	// The JSON view still serves at the bare path.
	rec := get(t, h, "/metrics")
	var snap server.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}
	if snap.Workers != 2 || snap.TracesRetained != 1 {
		t.Fatalf("snapshot workers=%d tracesRetained=%d, want 2/1", snap.Workers, snap.TracesRetained)
	}

	// healthz: JSON gains the workers gauge, prom form lints clean.
	rec = get(t, h, "/healthz")
	var health struct {
		Workers int `json:"workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Workers != 2 {
		t.Fatalf("healthz workers = %d, want 2", health.Workers)
	}
	rec = get(t, h, "/healthz?format=prom")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz prom: %d", rec.Code)
	}
	if probs := promtext.Lint(bytes.NewReader(rec.Body.Bytes())); len(probs) != 0 {
		t.Fatalf("healthz prom lint problems: %v\n%s", probs, rec.Body)
	}
	for _, want := range []string{"ccserve_up 1", "ccserve_queue_depth", "ccserve_workers 2"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("healthz prom missing %q:\n%s", want, rec.Body)
		}
	}
}
