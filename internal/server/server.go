// Package server is ccolor's serving layer: a bounded job queue with
// backpressure, a worker pool executing registry-problem jobs (coloring,
// MIS, ruling sets) through the public ccolor.Solve facade, a deterministic
// content-addressed LRU result cache, and per-model plus per-problem
// metrics (jobs, latency percentiles, cache hit rate, and rounds/words
// ledger rollups).
//
// The design leans on the paper's determinism: the algorithms are
// deterministic, so identical specs always produce identical solutions and
// identical cost ledgers, and a cached Report is indistinguishable from a
// recomputed one. cmd/ccserve exposes this package over HTTP.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccolor"
	"ccolor/internal/problem"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// Errors returned by the admission path.
var (
	// ErrQueueFull signals backpressure: the bounded queue is at capacity.
	// cmd/ccserve maps it to HTTP 429.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining is returned once Drain has begun.
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Config sizes the service.
type Config struct {
	// Workers is the worker-pool width; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs; 0
	// means 256. Submissions beyond Workers+QueueDepth in flight fail with
	// ErrQueueFull.
	QueueDepth int
	// CacheEntries is the LRU result-cache capacity; 0 means 1024, negative
	// disables caching.
	CacheEntries int
	// CacheWords additionally bounds the cache by total stored coloring
	// words, so a few giant results cannot pin unbounded memory; 0 means
	// 1<<24 (~128 MB of colorings).
	CacheWords int64
	// RetainJobs bounds how many finished async jobs stay queryable; 0
	// means 4096.
	RetainJobs int
	// RetainWords additionally bounds retained async results by total
	// coloring words; 0 means 1<<24.
	RetainWords int64
	// TraceRetention bounds how many per-job telemetry traces stay
	// queryable (GET /v1/jobs/{id}/trace); 0 means 512, negative disables
	// per-job tracing entirely (fresh solves then run with a nil recorder).
	TraceRetention int
	// VerifyOnSolve re-checks every fresh (non-cached) solve through the
	// independent internal/verify oracle — properness, palette membership,
	// and the Δ+1/deg+1 bound the instance implies — before the result is
	// cached or published. A failure fails the job and counts in the
	// per-model VerifyFailures metric. This is the debug/canary mode for
	// soak tests and staged rollouts; the solver already self-verifies, so
	// production serving normally leaves it off.
	VerifyOnSolve bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheWords <= 0 {
		c.CacheWords = 1 << 24
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.RetainWords <= 0 {
		c.RetainWords = 1 << 24
	}
	if c.TraceRetention == 0 {
		c.TraceRetention = 512
	}
	return c
}

// Server is the coloring service. Create with New, then Submit (async) or
// Do (synchronous); Drain for graceful shutdown.
type Server struct {
	cfg     Config
	queue   chan *Job
	cache   *Cache
	metrics *Metrics
	traces  *traceStore // nil when per-job tracing is disabled

	mu       sync.Mutex // guards draining + queue close
	draining bool

	jobsMu        sync.Mutex
	jobs          map[string]*Job
	retention     []string // finished-job IDs, oldest first
	retainedWords int64    // total coloring words held by retained jobs

	// flights coalesces concurrent identical jobs: the first cache miss
	// becomes the leader and solves; duplicates arriving meanwhile park on
	// the flight (without occupying a worker) and are finished by the
	// leader when it completes.
	flightMu sync.Mutex
	flights  map[cacheKey]*flight

	nextID   atomic.Uint64
	inFlight atomic.Int64 // queued + running
	wg       sync.WaitGroup
}

// New starts a server with cfg's worker pool already running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueDepth),
		cache:   NewCache(cfg.CacheEntries, cfg.CacheWords),
		metrics: newMetrics(time.Now()),
		jobs:    make(map[string]*Job),
		flights: make(map[cacheKey]*flight),
	}
	if cfg.TraceRetention > 0 {
		s.traces = newTraceStore(cfg.TraceRetention)
	}
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job, returning immediately. ErrQueueFull
// signals backpressure; the caller decides whether to retry. The job stays
// queryable via Job until RetainJobs newer jobs finish — use
// SubmitEphemeral when nobody will look the job up by ID.
func (s *Server) Submit(spec Spec) (*Job, error) { return s.submit(spec, true) }

// SubmitEphemeral is Submit for jobs whose *Job handle the caller holds
// directly (synchronous requests): the job is never registered for Job
// lookups, so its instance and coloring are collectable as soon as the
// caller drops the handle.
func (s *Server) SubmitEphemeral(spec Spec) (*Job, error) { return s.submit(spec, false) }

func (s *Server) submit(spec Spec, track bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	job := newJob(fmt.Sprintf("job-%08d", s.nextID.Add(1)), spec, time.Now())
	job.tracked = track
	if track {
		s.jobsMu.Lock()
		s.jobs[job.ID] = job
		s.jobsMu.Unlock()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.forget(job.ID)
		return nil, ErrDraining
	}
	select {
	case s.queue <- job:
		s.inFlight.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.forget(job.ID)
		s.metrics.RecordRejected()
		return nil, ErrQueueFull
	}
	return job, nil
}

// Do submits a job and waits for its result, honoring ctx cancellation
// (the job itself still runs to completion; only the wait is abandoned).
func (s *Server) Do(ctx context.Context, spec Spec) (*Result, error) {
	job, err := s.SubmitEphemeral(spec)
	if err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
		return job.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Job looks up a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// InFlight returns the number of queued-or-running jobs.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// QueueStats returns the current queue depth and capacity — cheap gauges
// for liveness probes that don't need the full metrics snapshot.
func (s *Server) QueueStats() (depth, capacity int) {
	return len(s.queue), s.cfg.QueueDepth
}

// Workers returns the worker-pool width (after defaulting).
func (s *Server) Workers() int { return s.cfg.Workers }

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Trace looks up a retained per-job telemetry trace by trace ID (the
// Result.TraceID a fresh solve carries); ok is false after eviction or when
// tracing is disabled.
func (s *Server) Trace(id string) (*telemetry.Trace, bool) {
	if s.traces == nil {
		return nil, false
	}
	return s.traces.get(id)
}

// Metrics returns a consistent snapshot of service counters.
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot(time.Now())
	snap.InFlight = s.inFlight.Load()
	snap.QueueDepth = len(s.queue)
	snap.QueueCap = s.cfg.QueueDepth
	snap.Workers = s.cfg.Workers
	snap.CacheSize = s.cache.Len()
	snap.CacheHits, snap.CacheMiss = s.cache.Stats()
	if s.traces != nil {
		snap.TracesRetained = s.traces.size()
	}
	return snap
}

// Drain stops admission and waits — bounded by ctx — for queued and running
// jobs to finish. It is idempotent; concurrent Submits fail fast with
// ErrDraining once it begins.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with %d jobs in flight: %w",
			s.inFlight.Load(), ctx.Err())
	}
}

// worker is the pool loop: pop, execute (cache-first), publish. run reports
// whether it completed the job itself; a parked job is finished — and its
// in-flight slot released — by the leader of its flight.
//
// Each worker pins one solver session per model for its lifetime: after a
// model's first job, every later solve on this worker runs warm — no
// simulator or workspace construction — which is the steady-state serving
// regime the session engine was built for. Sessions are single-threaded by
// construction here (one owner goroutine), and warm solves are
// byte-identical to cold ones, so cache entries stay deterministic.
func (s *Server) worker() {
	defer s.wg.Done()
	sessions := workerSessions{}
	defer sessions.release(s.metrics)
	for job := range s.queue {
		if s.run(job, &sessions) {
			s.inFlight.Add(-1)
		}
	}
}

// sessionModels fixes the model ↔ slot mapping for workerSessions; slot 0
// doubles as the default for an empty model (ModelCClique, matching
// Spec.model).
var sessionModels = [...]ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}

// workerSessions is one worker's pinned per-model solver sessions.
type workerSessions struct {
	byModel [len(sessionModels)]*ccolor.SolverSession
}

// sessionSlot maps a model to its fixed array slot.
func sessionSlot(model ccolor.Model) int {
	for slot, m := range sessionModels {
		if m == model {
			return slot
		}
	}
	return 0
}

// solve runs the spec on the worker's session for its model, creating the
// session on the model's first job and counting every later solve as a
// session reuse. A failed solve retires the session (goroutines released,
// slot cleared) so the next job starts from clean state.
func (ws *workerSessions) solve(m *Metrics, spec *Spec, trace bool) (*ccolor.Report, error) {
	model := spec.model()
	slot := sessionSlot(model)
	sess := ws.byModel[slot]
	if sess == nil {
		var err error
		sess, err = ccolor.NewSolverSession(model)
		if err != nil {
			return nil, err
		}
		ws.byModel[slot] = sess
		m.RecordSessionActive(model, +1)
	} else {
		m.RecordSessionReuse(model)
	}
	opts := spec.options()
	opts.Trace = trace
	rep, err := sess.Solve(spec.Inst, opts)
	if err != nil {
		sess.Release()
		ws.byModel[slot] = nil
		m.RecordSessionActive(model, -1)
		return nil, err
	}
	return rep, nil
}

// release retires all pinned sessions when the worker exits (drain).
func (ws *workerSessions) release(m *Metrics) {
	for slot, sess := range ws.byModel {
		if sess == nil {
			continue
		}
		sess.Release()
		m.RecordSessionActive(sessionModels[slot], -1)
		ws.byModel[slot] = nil
	}
}

// verifySolve re-derives the report's claims through the job's problem
// oracle: the full coloring oracle (properness, palette membership, the
// Δ+1/deg+1 bound the instance implies) for coloring jobs, the registry
// checker (independence, maximality / domination radius) for set jobs.
func verifySolve(spec *Spec, rep *ccolor.Report) error {
	p, err := problem.Lookup(string(spec.problem()))
	if err != nil {
		return err
	}
	if p.Output == problem.OutputColoring {
		return verify.Full(spec.Inst, rep.Coloring)
	}
	return p.Check(spec.Inst, &problem.Solution{Set: rep.Set, Beta: rep.Beta})
}

// flight is one in-progress solve; identical jobs arriving while it runs
// park on it instead of duplicating the (deterministic) work or blocking a
// worker goroutine.
type flight struct {
	waiters []parkedJob
}

type parkedJob struct {
	job   *Job
	start time.Time
}

// run executes one dequeued job. It returns false when the job was parked
// on an in-progress identical solve — the flight's leader will complete it.
func (s *Server) run(job *Job, sessions *workerSessions) bool {
	job.setRunning()
	start := time.Now()
	key := keyFor(&job.Spec)
	if rep, ok := s.cache.Get(key); ok {
		s.complete(job, &Result{Report: rep, Key: key.Hex(), Cached: true}, nil, start)
		return true
	}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters = append(f.waiters, parkedJob{job: job, start: start})
		s.flightMu.Unlock()
		return false
	}
	f := &flight{}
	s.flights[key] = f
	s.flightMu.Unlock()

	rep, err := sessions.solve(s.metrics, &job.Spec, s.traces != nil)
	if err == nil && s.cfg.VerifyOnSolve {
		// The instance is still attached here (it is only released when the
		// job finishes), so the oracle can re-derive every claim from it.
		if verr := verifySolve(&job.Spec, rep); verr != nil {
			err = fmt.Errorf("server: verify-on-solve rejected the solution: %w", verr)
			rep = nil
			s.metrics.RecordVerify(job.Spec.model(), false)
		} else {
			s.metrics.RecordVerify(job.Spec.model(), true)
		}
	}
	// Detach the telemetry trace before the Report is cached or shared:
	// cached Reports are run-independent by contract, while the trace is
	// run-scoped. It lives on in the bounded trace store under a trace ID
	// carried by this run's Results (the leader's and its flight waiters').
	var traceID string
	if err == nil && rep.Telemetry != nil {
		tel := rep.Telemetry
		rep.Telemetry = nil
		if s.traces != nil {
			traceID = s.traces.put(tel)
		}
	}
	if err == nil {
		s.cache.Put(key, rep)
	}
	// Deregister first so no new waiter can join, then settle everyone.
	// Waiters count as cache hits — they were served without solving.
	s.flightMu.Lock()
	delete(s.flights, key)
	waiters := f.waiters
	s.flightMu.Unlock()

	if err != nil {
		s.complete(job, nil, err, start)
		for _, p := range waiters {
			s.complete(p.job, nil, err, p.start)
			s.inFlight.Add(-1)
		}
		return true
	}
	s.complete(job, &Result{Report: rep, Key: key.Hex(), TraceID: traceID}, nil, start)
	for _, p := range waiters {
		s.complete(p.job, &Result{Report: rep, Key: key.Hex(), Cached: true, TraceID: traceID}, nil, p.start)
		s.inFlight.Add(-1)
	}
	return true
}

// complete stamps, records, publishes, and retains one finished job.
func (s *Server) complete(job *Job, res *Result, err error, start time.Time) {
	lat := time.Since(start)
	if res != nil {
		res.Elapsed = lat
		res.N = job.Spec.Inst.G.N()
		res.M = job.Spec.Inst.G.M()
	}
	s.metrics.RecordJob(job.Spec.model(), job.Spec.problem(), res, err, lat)
	job.finish(res, err)
	s.retain(job)
}

func (s *Server) forget(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// retain tracks the finished job for later Job lookups, evicting the oldest
// finished jobs beyond the retention bounds (count and total coloring
// words, so a few giant results cannot pin unbounded memory). Ephemeral
// jobs are skipped — they were never registered.
func (s *Server) retain(job *Job) {
	if !job.tracked {
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.retention = append(s.retention, job.ID)
	s.retainedWords += resultWords(job)
	for len(s.retention) > s.cfg.RetainJobs ||
		(s.retainedWords > s.cfg.RetainWords && len(s.retention) > 1) {
		old, ok := s.jobs[s.retention[0]]
		if ok {
			s.retainedWords -= resultWords(old)
			delete(s.jobs, s.retention[0])
		}
		s.retention = s.retention[1:]
	}
}

// resultWords approximates a finished job's resident result size (the
// coloring or set vector dominates; the instance itself was released at
// finish).
func resultWords(job *Job) int64 {
	res, _ := job.Result()
	if res == nil || res.Report == nil {
		return 0
	}
	return reportWords(res.Report)
}
