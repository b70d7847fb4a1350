// ccserve exposes ccolor's deterministic solvers — the full problem
// registry: (Δ+1)/(deg+1)-list coloring, maximal independent sets, and
// (2,β)-ruling sets — as a concurrent HTTP service backed by
// internal/server: a bounded job queue with backpressure (429 on overflow),
// a worker pool, and a content-addressed result cache that exploits the
// algorithms' determinism.
//
// Endpoints:
//
//	POST /v1/solve           one job ("problem": coloring|mis|rulingset);
//	                         {"async":true} returns 202 + job id
//	POST /v1/batch           many jobs in one request
//	GET  /v1/jobs/{id}       async job status / result
//	GET  /v1/jobs/{id}/trace phase-attributed telemetry spans for the solve
//	GET  /metrics            per-model and per-problem counters, latency
//	                         percentiles, cache stats
//	GET  /metrics/prom       the same, as Prometheus text exposition
//	GET  /healthz            liveness + queue gauges (?format=prom for scraping)
//
// Fresh solves run with telemetry tracing: the response carries an X-Trace-Id
// header addressing a bounded trace store (-trace-retain, 0 = default 512,
// negative disables tracing entirely).
//
// -debug-addr starts a second listener serving net/http/pprof — profiling
// stays off the public port and off by default.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops, queued and
// running jobs finish (bounded by -drain-timeout), then the process exits.
//
// Try it:
//
//	ccserve -addr :8080 &
//	curl -s localhost:8080/v1/solve -d '{"graph":{"kind":"gnp","n":256,"p":0.05,"seed":1}}'
//	curl -s localhost:8080/metrics/prom
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ccolor/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker pool width (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 256, "bounded job-queue depth")
		cacheSize    = flag.Int("cache", 1024, "result-cache entries (negative disables)")
		retainJobs   = flag.Int("retain", 4096, "finished async jobs kept queryable")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound")
		verifyMode   = flag.Bool("verify", false, "verify-on-solve debug mode: re-check every fresh solve through the independent coloring oracle (counts in /metrics)")
		traceRetain  = flag.Int("trace-retain", 0, "telemetry traces kept queryable (0 = default 512, negative disables tracing)")
		debugAddr    = flag.String("debug-addr", "", "listen address for net/http/pprof (empty disables profiling)")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheSize,
		RetainJobs:     *retainJobs,
		VerifyOnSolve:  *verifyMode,
		TraceRetention: *traceRetain,
	})
	h := newHandler(srv, *queueDepth, *workers)
	httpSrv := &http.Server{Addr: *addr, Handler: h.routes()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, pprofMux()); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("ccserve listening on %s (workers=%d queue=%d cache=%d)",
		*addr, *workers, *queueDepth, *cacheSize)

	select {
	case <-ctx.Done():
		log.Printf("signal received; draining (timeout %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := srv.Drain(shutdownCtx); err != nil {
			log.Fatalf("drain: %v", err)
		}
		log.Printf("drained cleanly")
	case err := <-errCh:
		log.Fatalf("listen: %v", err)
	}
}

// maxBodyBytes bounds request bodies; maxBatchJobs bounds one batch. Both
// protect the process from being exhausted before admission control runs.
const (
	maxBodyBytes = 32 << 20
	maxBatchJobs = 256
)

type handler struct {
	srv *server.Server
	// build gates instance materialization: graph generation happens on the
	// HTTP goroutine *before* queue admission, so without this a burst of
	// expensive requests could exhaust the process while the bounded queue
	// sits empty. Capacity mirrors what the queue would admit anyway.
	build chan struct{}
}

func newHandler(srv *server.Server, queueDepth, workers int) *handler {
	if queueDepth <= 0 {
		queueDepth = 256
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) // mirror server.Config.withDefaults
	}
	return &handler{srv: srv, build: make(chan struct{}, queueDepth+workers)}
}

// acquireBuild reserves a materialization slot without blocking; a full
// house means the service is saturated and the request gets backpressure.
func (h *handler) acquireBuild() bool {
	select {
	case h.build <- struct{}{}:
		return true
	default:
		return false
	}
}

func (h *handler) releaseBuild() { <-h.build }

func (h *handler) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", h.solve)
	mux.HandleFunc("POST /v1/batch", h.batch)
	mux.HandleFunc("GET /v1/jobs/{id}", h.job)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.jobTrace)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /metrics/prom", h.metricsProm)
	mux.HandleFunc("GET /healthz", h.healthz)
	return mux
}

// pprofMux serves net/http/pprof on the private debug listener. The profile
// handlers are registered explicitly rather than via the package's implicit
// DefaultServeMux side effect, so nothing profiling-related ever leaks onto
// the public mux.
func pprofMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON emits the body with a stable serialization; ColorResponse bodies
// are byte-identical for identical instances by construction.
func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// submitStatus maps admission errors to HTTP statuses: 429 is the
// backpressure contract for a full queue.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, server.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, server.ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (h *handler) solve(w http.ResponseWriter, r *http.Request) {
	var req ColorRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	job, err := h.admit(&req)
	if err != nil {
		writeError(w, submitStatus(err), err)
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, map[string]string{"job_id": job.ID})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}
	res, err := job.Result()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	setResultHeaders(w, res)
	writeJSON(w, http.StatusOK, buildColorResponse(res, req.OmitColoring))
}

// admit materializes the request's instance inside a build slot and
// enqueues it. Async jobs are tracked (queryable via /v1/jobs/{id});
// synchronous jobs are ephemeral — the handler holds the only reference.
func (h *handler) admit(req *ColorRequest) (*server.Job, error) {
	if !h.acquireBuild() {
		return nil, fmt.Errorf("instance build capacity: %w", server.ErrQueueFull)
	}
	defer h.releaseBuild()
	spec, err := req.Spec()
	if err != nil {
		return nil, err
	}
	if req.Async {
		return h.srv.Submit(spec)
	}
	return h.srv.SubmitEphemeral(spec)
}

// setResultHeaders carries the request-scoped facts (cache outcome, worker
// latency) that must stay out of the deterministic body.
func setResultHeaders(w http.ResponseWriter, res *server.Result) {
	if res.Cached {
		w.Header().Set("X-CCServe-Cache", "hit")
	} else {
		w.Header().Set("X-CCServe-Cache", "miss")
	}
	w.Header().Set("X-CCServe-Elapsed-Us", strconv.FormatInt(res.Elapsed.Microseconds(), 10))
	if res.TraceID != "" {
		w.Header().Set("X-Trace-Id", res.TraceID)
	}
}

func (h *handler) batch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch: no jobs"))
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch: %d jobs exceeds limit %d", len(req.Jobs), maxBatchJobs))
		return
	}
	entries := make([]BatchEntry, len(req.Jobs))
	var wg sync.WaitGroup
	for i := range req.Jobs {
		req.Jobs[i].Async = false // batch entries resolve in this response
		job, err := h.admit(&req.Jobs[i])
		if err != nil {
			entries[i] = BatchEntry{Error: err.Error()}
			continue
		}
		wg.Add(1)
		go func(i int, job *server.Job) {
			defer wg.Done()
			<-job.Done()
			res, err := job.Result()
			if err != nil {
				entries[i] = BatchEntry{Error: err.Error()}
				return
			}
			entries[i] = BatchEntry{OK: true, Result: buildColorResponse(res, req.Jobs[i].OmitColoring)}
		}(i, job)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: entries})
}

func (h *handler) job(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := h.srv.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	state, res, err := job.Status()
	env := JobEnvelope{ID: job.ID, State: string(state)}
	if err != nil {
		env.Error = err.Error()
	} else if res != nil {
		setResultHeaders(w, res)
		env.Result = buildColorResponse(res, job.Spec.OmitColoring)
	}
	writeJSON(w, http.StatusOK, env)
}

// jobTrace serves the phase-attributed telemetry spans recorded for a
// finished job's solve. 404 covers every "no trace exists" case (unknown
// job, unfinished, failed, cache hit, tracing disabled); an evicted trace is
// 410 Gone — it existed but aged out of the bounded store.
func (h *handler) jobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := h.srv.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	state, res, err := job.Status()
	if err != nil || res == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q has no result (state %s)", id, state))
		return
	}
	if res.TraceID == "" {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %q has no trace (served from cache, or tracing disabled)", id))
		return
	}
	tr, ok := h.srv.Trace(res.TraceID)
	if !ok {
		writeError(w, http.StatusGone, fmt.Errorf("trace %s evicted from the trace store", res.TraceID))
		return
	}
	writeJSON(w, http.StatusOK, TraceEnvelope{JobID: job.ID, TraceID: res.TraceID, Trace: tr})
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		h.metricsProm(w, r)
		return
	}
	writeJSON(w, http.StatusOK, h.srv.Metrics())
}

func (h *handler) metricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	server.WritePrometheus(w, h.srv.Metrics())
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	// Liveness probes poll this; use the cheap gauges rather than the full
	// metrics snapshot (which copies and sorts latency samples).
	depth, capacity := h.srv.QueueStats()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		server.WriteHealthPrometheus(w, server.Snapshot{
			Workers:    h.srv.Workers(),
			InFlight:   h.srv.InFlight(),
			QueueDepth: depth,
			QueueCap:   capacity,
		}, h.srv.Draining())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"in_flight":   h.srv.InFlight(),
		"queue_depth": depth,
		"queue_cap":   capacity,
		"workers":     h.srv.Workers(),
	})
}
