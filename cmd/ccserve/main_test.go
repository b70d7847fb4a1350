package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccolor/internal/server"
)

func newTestHandler(t *testing.T, cfg server.Config) (http.Handler, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return newHandler(srv, cfg.QueueDepth, cfg.Workers).routes(), srv
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const gnpBody = `{"model":"cclique","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`

func TestColorEndpointByteIdenticalOnCacheHit(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})

	first := post(t, h, "/v1/solve", gnpBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-CCServe-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	second := post(t, h, "/v1/solve", gnpBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-CCServe-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("bodies differ between identical requests:\n%s\nvs\n%s", first.Body, second.Body)
	}
	var resp ColorResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rounds <= 0 || resp.WordsMoved <= 0 || resp.Key == "" {
		t.Fatalf("missing per-job telemetry: %+v", resp)
	}
	if len(resp.Coloring) != 96 {
		t.Fatalf("coloring has %d entries, want 96", len(resp.Coloring))
	}
}

func TestColorEndpointAllModels(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 4, QueueDepth: 16})
	bodies := []string{
		`{"model":"cclique","graph":{"kind":"regular","n":64,"d":8,"seed":2}}`,
		`{"model":"mpc","graph":{"kind":"powerlaw","n":64,"attach":3,"seed":2}}`,
		`{"model":"lowspace","graph":{"kind":"gnp","n":64,"p":0.08,"seed":2}}`,
	}
	for _, body := range bodies {
		rec := post(t, h, "/v1/solve", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s -> %d %s", body, rec.Code, rec.Body)
		}
		var resp ColorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Rounds <= 0 {
			t.Fatalf("%s: no round telemetry: %+v", body, resp)
		}
	}
}

func TestColorEndpointBackpressure429(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 1, QueueDepth: 1})
	saw429 := false
	for i := 0; i < 48 && !saw429; i++ {
		rec := post(t, h, "/v1/solve",
			`{"graph":{"kind":"gnp","n":128,"p":0.05,"seed":7},"async":true}`)
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body)
		}
	}
	if !saw429 {
		t.Fatal("no request hit the 429 backpressure path")
	}
}

func TestAsyncJobFlow(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})
	rec := post(t, h, "/v1/solve", `{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":3},"async":true}`)
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
	for {
		rec := get(t, h, "/v1/jobs/"+accepted.JobID)
		if rec.Code != http.StatusOK {
			t.Fatalf("job lookup: %d %s", rec.Code, rec.Body)
		}
		var env JobEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.State == string(server.StateDone) {
			if env.Result == nil || env.Result.Rounds <= 0 {
				t.Fatalf("done job missing result: %s", rec.Body)
			}
			break
		}
		if env.State == string(server.StateFailed) {
			t.Fatalf("job failed: %s", env.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", accepted.JobID, env.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec := get(t, h, "/v1/jobs/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job lookup: %d", rec.Code)
	}

	// omit_coloring must carry through to the async envelope.
	rec = post(t, h, "/v1/solve",
		`{"graph":{"kind":"gnp","n":48,"p":0.1,"seed":4},"async":true,"omit_coloring":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async omit submit: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	for {
		rec := get(t, h, "/v1/jobs/"+accepted.JobID)
		var env JobEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.State == string(server.StateDone) {
			if env.Result == nil || len(env.Result.Coloring) != 0 {
				t.Fatalf("omit_coloring ignored in envelope: %s", rec.Body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("omit job stuck in state %s", env.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBatchEndpoint(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 4, QueueDepth: 32})
	body := `{"jobs":[
		{"model":"cclique","graph":{"kind":"gnp","n":48,"p":0.1,"seed":1}},
		{"model":"mpc","graph":{"kind":"regular","n":48,"d":6,"seed":1}},
		{"model":"lowspace","graph":{"kind":"gnp","n":48,"p":0.1,"seed":1}},
		{"model":"cclique","graph":{"kind":"bogus","n":8}}
	]}`
	rec := post(t, h, "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(resp.Results))
	}
	for i := 0; i < 3; i++ {
		if !resp.Results[i].OK || resp.Results[i].Result == nil {
			t.Fatalf("batch entry %d failed: %+v", i, resp.Results[i])
		}
		if resp.Results[i].Result.Rounds <= 0 {
			t.Fatalf("batch entry %d missing telemetry", i)
		}
	}
	if resp.Results[3].OK || resp.Results[3].Error == "" {
		t.Fatalf("invalid batch entry not rejected: %+v", resp.Results[3])
	}
}

func TestMetricsAndHealth(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 8})
	if rec := post(t, h, "/v1/solve", gnpBody); rec.Code != http.StatusOK {
		t.Fatalf("color: %d", rec.Code)
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var snap server.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsTotal != 1 || snap.PerModel["cclique"].Jobs != 1 {
		t.Fatalf("metrics did not count the job: %s", rec.Body)
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

// TestScenarioGraphKind drives the registry through the wire format: a
// scenario request resolves to the canonical instance (cache-hit across
// repeats), unknown names fail with the catalog in the error, and the
// verify-on-solve mode is surfaced in /metrics.
func TestScenarioGraphKind(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16, VerifyOnSolve: true})

	body := `{"model":"lowspace","graph":{"kind":"scenario","name":"ring-of-cliques","n":64,"seed":9}}`
	first := post(t, h, "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("scenario request: %d %s", first.Code, first.Body)
	}
	second := post(t, h, "/v1/solve", body)
	if got := second.Header().Get("X-CCServe-Cache"); got != "hit" {
		t.Fatalf("repeat scenario request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("scenario responses not byte-identical")
	}
	var resp ColorResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 64 || resp.Rounds <= 0 {
		t.Fatalf("scenario response shape: %+v", resp)
	}

	// Unknown scenario: 400 with the full catalog named.
	rec := post(t, h, "/v1/solve", `{"graph":{"kind":"scenario","name":"nonesuch","n":64}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown scenario: %d %s", rec.Code, rec.Body)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("ring-of-cliques")) {
		t.Fatalf("error does not list the catalog: %s", rec.Body)
	}

	// Oversized scenario: the canonical encoding of gnp at n=10⁶ predicts
	// over the word budget, rejected before palettes are materialized.
	rec = post(t, h, "/v1/solve", `{"graph":{"kind":"scenario","name":"gnp","n":1000000}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized scenario: %d %s", rec.Code, rec.Body)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("words")) {
		t.Fatalf("oversized scenario error does not name the word budget: %s", rec.Body)
	}

	// The fresh solve above was verified once; the cache hit was not.
	mrec := get(t, h, "/metrics")
	var snap server.Snapshot
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ls := snap.PerModel["lowspace"]
	if ls.Verified != 1 || ls.VerifyFailures != 0 {
		t.Fatalf("verify counters = %d/%d, want 1/0: %s", ls.Verified, ls.VerifyFailures, mrec.Body)
	}
}

// TestScenarioScaleTier drives the large-instance tier through the wire
// format: admission is bounded by canonical encoded words, not a flat node
// cap. A 2¹⁴-node gnp request — over the old 2¹⁵-limit era's comfort zone
// once palettes are counted, yet only ~0.5 Mi words — must solve; an rmat
// request whose heavy-tailed list palettes predict ~250 Mi words must be
// rejected even though its node count is modest.
func TestScenarioScaleTier(t *testing.T) {
	if testing.Short() {
		t.Skip("2¹⁴-node HTTP solve skipped in -short mode")
	}
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})

	body := `{"model":"cclique","graph":{"kind":"scenario","name":"gnp","n":16384,"seed":11},"omit_coloring":true}`
	rec := post(t, h, "/v1/solve", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("16k scenario request: %d %s", rec.Code, rec.Body)
	}
	var resp ColorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 16384 || resp.Rounds <= 0 || resp.ColorsUsed <= 0 {
		t.Fatalf("16k scenario response shape: %+v", resp)
	}

	// rmat at 2¹⁶ nodes is within every node/edge cap but its canonical
	// encoding is ~250 Mi words of list palettes.
	rec = post(t, h, "/v1/solve", `{"graph":{"kind":"scenario","name":"rmat","n":65536}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("rmat 64k scenario: %d %s", rec.Code, rec.Body)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("words")) {
		t.Fatalf("rmat 64k error does not name the word budget: %s", rec.Body)
	}
}

// TestSolveEndpointProblems drives the problem registry through POST
// /v1/solve: set-shaped responses, per-problem cache identity, verify-on-
// solve through the registry checkers, and the per-problem metrics rows.
func TestSolveEndpointProblems(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16, VerifyOnSolve: true})

	misBody := `{"model":"mpc","problem":"mis","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`
	first := post(t, h, "/v1/solve", misBody)
	if first.Code != http.StatusOK {
		t.Fatalf("mis request: %d %s", first.Code, first.Body)
	}
	var misResp ColorResponse
	if err := json.Unmarshal(first.Body.Bytes(), &misResp); err != nil {
		t.Fatal(err)
	}
	if misResp.Problem != "mis" || len(misResp.Coloring) != 0 {
		t.Fatalf("mis response shape: %+v", misResp)
	}
	if misResp.SetSize == 0 || len(misResp.Set) != misResp.SetSize {
		t.Fatalf("mis set: size=%d members=%d", misResp.SetSize, len(misResp.Set))
	}
	second := post(t, h, "/v1/solve", misBody)
	if got := second.Header().Get("X-CCServe-Cache"); got != "hit" {
		t.Fatalf("repeat mis request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("mis responses not byte-identical")
	}

	// Same instance, different problem: must be a distinct cache entry.
	colBody := `{"model":"mpc","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`
	if rec := post(t, h, "/v1/solve", colBody); rec.Header().Get("X-CCServe-Cache") != "miss" {
		t.Fatalf("coloring job collided with the mis cache entry: %s", rec.Body)
	}

	// Ruling set: explicit beta=2 and the implicit default share one entry.
	rsBody := `{"problem":"rulingset","beta":2,"graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`
	rec := post(t, h, "/v1/solve", rsBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("rulingset request: %d %s", rec.Code, rec.Body)
	}
	var rsResp ColorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rsResp); err != nil {
		t.Fatal(err)
	}
	if rsResp.Problem != "rulingset" || rsResp.Beta != 2 || rsResp.SetSize == 0 {
		t.Fatalf("rulingset response shape: %+v", rsResp)
	}
	defBody := `{"problem":"rulingset","graph":{"kind":"gnp","n":96,"p":0.06,"seed":11}}`
	if rec := post(t, h, "/v1/solve", defBody); rec.Header().Get("X-CCServe-Cache") != "hit" {
		t.Fatalf("default-beta rulingset job missed the beta=2 cache entry: %s", rec.Body)
	}

	// Unknown problem names fail with the catalog; beta is rulingset-only.
	if rec := post(t, h, "/v1/solve", `{"problem":"maxcut","graph":{"kind":"gnp","n":8,"p":0.5,"seed":1}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown problem: %d %s", rec.Code, rec.Body)
	} else if !bytes.Contains(rec.Body.Bytes(), []byte("rulingset")) {
		t.Fatalf("error does not list the problem catalog: %s", rec.Body)
	}
	if rec := post(t, h, "/v1/solve", `{"problem":"mis","beta":3,"graph":{"kind":"gnp","n":8,"p":0.5,"seed":1}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("beta on mis: %d %s", rec.Code, rec.Body)
	}

	// Per-problem metrics rows: fresh solves were verified by the registry
	// checkers, and each (model, problem) pair has its own counters.
	mrec := get(t, h, "/metrics")
	var snap server.Snapshot
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]server.ProblemSnapshot, len(snap.PerProblem))
	for _, ps := range snap.PerProblem {
		rows[ps.Model+"/"+ps.Problem] = ps
	}
	if r := rows["mpc/mis"]; r.Jobs != 2 || r.CacheHits != 1 || r.SetSizeTotal == 0 {
		t.Fatalf("mpc/mis row = %+v: %s", r, mrec.Body)
	}
	if r := rows["cclique/rulingset"]; r.Jobs != 2 || r.CacheHits != 1 {
		t.Fatalf("cclique/rulingset row = %+v: %s", r, mrec.Body)
	}
	if mpc := snap.PerModel["mpc"]; mpc.Verified != 2 || mpc.VerifyFailures != 0 {
		t.Fatalf("mpc verify counters = %d/%d, want 2/0", mpc.Verified, mpc.VerifyFailures)
	}
}

// TestEdgesStreamingDecode drives the kind "edges" path, which defers the
// edge list as raw JSON and streams it into a graph.EdgeSink once n is
// known: a 50k-node cycle (~1 MB of JSON) must solve and cache like any
// generated instance, and the stream-time admission errors (node range,
// self loop, malformed pair) must each surface as 400s.
func TestEdgesStreamingDecode(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 2, QueueDepth: 16})

	const n = 50000
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"graph":{"kind":"edges","n":%d,"edges":[`, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, (i+1)%n)
	}
	sb.WriteString(`]},"omit_coloring":true}`)
	body := sb.String()

	first := post(t, h, "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("cycle request: %d %.300s", first.Code, first.Body)
	}
	var resp ColorResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != n || resp.M != n || resp.ColorsUsed > 3 {
		t.Fatalf("cycle response shape: n=%d m=%d colors=%d", resp.N, resp.M, resp.ColorsUsed)
	}
	// The streamed decode must be canonical: the identical body hits the
	// content-addressed cache byte for byte.
	second := post(t, h, "/v1/solve", body)
	if got := second.Header().Get("X-CCServe-Cache"); got != "hit" {
		t.Fatalf("repeat edges request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("edges responses not byte-identical")
	}

	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"out-of-range", `{"graph":{"kind":"edges","n":4,"edges":[[0,1],[1,9]]}}`, "out of range"},
		{"self-loop", `{"graph":{"kind":"edges","n":4,"edges":[[2,2]]}}`, "self loop"},
		{"odd-pair", `{"graph":{"kind":"edges","n":4,"edges":[[0,1,2]]}}`, "want 2"},
		{"not-an-array", `{"graph":{"kind":"edges","n":4,"edges":{"u":0}}}`, "expected an array"},
	} {
		rec := post(t, h, "/v1/solve", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s -> %d %s, want 400", tc.name, rec.Code, rec.Body)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte(tc.wantErr)) {
			t.Fatalf("%s error %s does not mention %q", tc.name, rec.Body, tc.wantErr)
		}
	}
}

func TestBadRequests(t *testing.T) {
	h, _ := newTestHandler(t, server.Config{Workers: 1, QueueDepth: 4})
	cases := []string{
		`not json`,
		`{"graph":{"kind":"bogus","n":8}}`,
		`{"model":"quantum","graph":{"kind":"gnp","n":8,"p":0.5,"seed":1}}`,
		`{"graph":{"kind":"gnp","n":-1,"p":0.5,"seed":1}}`,
		// A color below 0 once reached the solver and crashed a worker.
		`{"graph":{"kind":"edges","n":3,"edges":[[0,1],[1,2]]},"palette":{"palettes":[[-5,1,2],[1,2,3],[1,2,3]]}}`,
	}
	for _, body := range cases {
		if rec := post(t, h, "/v1/solve", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s -> %d, want 400", body, rec.Code)
		}
	}
	if rec := post(t, h, "/v1/batch", `{"jobs":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch -> %d, want 400", rec.Code)
	}
}
