package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

// serveN is the node count of every serve-mix request.
const serveN = 4096

// hotSeedsPer is how many seeds each model puts in the hot set.
const hotSeedsPer = 2

// Hits repeat gnp requests and misses are fresh powerlaw ones, so each of
// hit_p50_s and miss_p50_s is a median over one kind of request. With both
// scenarios in both groups the medians were bimodal: a powerlaw hit, whose
// list palettes the handler rebuilds, costs more than a gnp miss.
const (
	hotScenario   = "gnp"
	freshScenario = "powerlaw"
)

var serveModels = []engine.Model{engine.ModelCClique, engine.ModelMPC}

// request is one POST /v1/solve of serve-mix: a registry scenario at serveN
// nodes with its own palettes, solved on one model, coloring returned.
type request struct {
	Scenario string
	Model    engine.Model
	Seed     uint64
	Hot      bool
}

func (r request) body() []byte {
	b, err := json.Marshal(map[string]any{
		"model": r.Model,
		"graph": map[string]any{"kind": "scenario", "name": r.Scenario, "n": serveN, "seed": r.Seed},
	})
	if err != nil {
		panic(err) // strings and numbers always encode
	}
	return b
}

func hotSeed(seed uint64, j int) uint64   { return seed*1_000_003 + uint64(j) }
func freshSeed(seed uint64, i int) uint64 { return seed*1_000_003 + hotSeedsPer + uint64(i) }

// hotSet lists the requests that set-up solves once, in order; three in four
// timed requests repeat one of them and hit the cache.
func hotSet(seed uint64) []request {
	var out []request
	for j := 0; j < hotSeedsPer; j++ {
		for _, m := range serveModels {
			out = append(out, request{hotScenario, m, hotSeed(seed, j), true})
		}
	}
	return out
}

// requestAt is the i-th timed request, a pure function of (seed, i). One in
// four carries a seed no other request uses, so it misses the cache; the
// others repeat a hot-set request. Models alternate in both groups.
func requestAt(seed uint64, i int) request {
	m := serveModels[(i+i/4)%2]
	if i%4 == 3 {
		return request{freshScenario, m, freshSeed(seed, i), false}
	}
	j := int(splitmix(seed^splitmix(uint64(i))) % hotSeedsPer)
	return request{hotScenario, m, hotSeed(seed, j), true}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func serveInstance(sc string, seed uint64) (*graph.Instance, error) {
	return registryInstance(sc)(serveN, seed)
}

// servePin solves the hot set in-process through engine sessions, the path
// ccserve's workers take, and combines the outputs as runServe does.
func servePin(seed uint64) (pin, error) {
	sessions := map[engine.Model]*engine.Session{}
	defer func() {
		for _, s := range sessions {
			s.Release()
		}
	}()
	var instFPs, colFPs []uint64
	var rounds int
	var words int64
	for _, r := range hotSet(seed) {
		inst, err := serveInstance(r.Scenario, r.Seed)
		if err != nil {
			return pin{}, err
		}
		s := sessions[r.Model]
		if s == nil {
			if s, err = engine.NewSession(r.Model); err != nil {
				return pin{}, err
			}
			sessions[r.Model] = s
		}
		rep, err := s.Solve(inst, nil)
		if err != nil {
			return pin{}, err
		}
		instFPs = append(instFPs, verify.InstanceFingerprint(inst))
		colFPs = append(colFPs, verify.ColoringFingerprint(rep.Coloring))
		rounds += rep.Rounds
		words += rep.WordsMoved
	}
	return combinedPin(instFPs, colFPs, rounds, words), nil
}

// ccserveProc is one ccserve subprocess on an ephemeral loopback port.
type ccserveProc struct {
	cmd     *exec.Cmd
	url     string
	log     lockedBuffer
	exited  chan struct{} // closed once the process has exited
	waitErr error         // valid once exited is closed
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startCCServe boots ccserve with one worker per CPU and waits until
// /healthz answers.
func startCCServe(bin string) (*ccserveProc, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs the ccserve binary (-ccserve)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a loopback port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	p := &ccserveProc{url: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(runtime.NumCPU()))
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	// If the benchmark dies, the kernel kills the server with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ccserve: %w", err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	if err := p.awaitHealthy(30 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func (p *ccserveProc) awaitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.exited:
			return fmt.Errorf("ccserve exited during boot (%v): %s", p.waitErr, p.log.String())
		default:
		}
		resp, err := c.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ccserve not healthy after %v: %s", limit, p.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained cleanly" log line.
func (p *ccserveProc) stop() error {
	select {
	case <-p.exited:
		return fmt.Errorf("ccserve exited before shutdown (%v): %s", p.waitErr, p.log.String())
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("signalling ccserve: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("ccserve still running 60s after SIGTERM")
	}
	if p.waitErr != nil {
		return fmt.Errorf("ccserve exit after SIGTERM: %v: %s", p.waitErr, p.log.String())
	}
	if !strings.Contains(p.log.String(), "drained cleanly") {
		return fmt.Errorf("ccserve exited without draining cleanly: %s", p.log.String())
	}
	return nil
}

// kill ends the process if it is still running and waits for it.
func (p *ccserveProc) kill() {
	p.cmd.Process.Kill() // fails only when the process is already gone
	<-p.exited
}

// peakRSSMB is the exited server's peak resident set size in MiB.
func (p *ccserveProc) peakRSSMB() float64 {
	<-p.exited
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

// response is one request's outcome as the client saw it.
type response struct {
	req     request
	setup   bool // sent during set-up, not timed
	err     error
	status  int
	latency time.Duration
	hit     bool
	elapsed time.Duration // X-CCServe-Elapsed-Us: the job's time in the worker
	body    []byte
}

func post(c *http.Client, url string, r request) response {
	body := r.body()
	start := time.Now()
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{req: r, err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	us, _ := strconv.ParseInt(resp.Header.Get("X-CCServe-Elapsed-Us"), 10, 64) // absent on errors
	return response{req: r, err: err, status: resp.StatusCode, latency: lat,
		hit: resp.Header.Get("X-CCServe-Cache") == "hit", elapsed: time.Duration(us) * time.Microsecond, body: data}
}

func newClient(conns int) *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}}
}

// serverCounts are the /metrics counters serve-mix reads.
type serverCounts struct {
	Jobs      uint64 `json:"jobs_total"`
	CacheHits uint64 `json:"cache_hits"`
	Rejected  uint64 `json:"rejected_total"`
}

func fetchCounts(c *http.Client, url string) (serverCounts, error) {
	var sc serverCounts
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sc, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return sc, json.NewDecoder(resp.Body).Decode(&sc)
}

// runServe measures serve-mix. Set-up boots ccserve setupRepeats times and
// sends the hot set once on each, so cold_solve_s covers requests on a
// fresh server, each a cache miss; the last server then takes the timed closed loop of one
// client connection per CPU but one, each sending the next request of the
// seeded sequence when its previous one returns. SIGTERM ends the server, which
// must drain cleanly. Outside the timed path every response is decoded,
// responses for one key must agree, and each key's coloring is verified
// against a locally regenerated instance.
func runServe(seed uint64, window time.Duration, traced bool, bin string) *tally {
	t := newTally()
	hot := hotSet(seed)
	var (
		setups, colds, rss []float64
		all                []response
		proc               *ccserveProc
	)
	defer func() {
		if proc != nil {
			proc.kill()
		}
	}()
	stop := func() {
		t.problem(proc.stop())
		rss = append(rss, proc.peakRSSMB())
		proc = nil
	}
	for b := 0; b < setupRepeats; b++ {
		if proc != nil {
			stop()
		}
		t0 := time.Now()
		p, err := startCCServe(bin)
		if err != nil {
			t.problem(err)
			return t
		}
		proc = p
		c := newClient(1)
		for _, r := range hot {
			resp := post(c, p.url, r)
			resp.setup = true
			colds = append(colds, resp.latency.Seconds())
			all = append(all, resp)
		}
		setups = append(setups, time.Since(t0).Seconds())
		c.CloseIdleConnections()
	}

	// One CPU is left to this client and the handlers' instance builds: with
	// a connection per CPU both cores saturate and the medians move by a
	// fifth between identical runs.
	conns := max(1, runtime.NumCPU()-1)
	client := newClient(conns)
	defer client.CloseIdleConnections()
	before, err := fetchCounts(client, proc.url)
	t.problem(err)
	var (
		next    atomic.Int64
		perConn = make([][]response, conns)
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				select {
				case <-proc.exited: // a crashed server fails the ops in flight; send no more
					return
				default:
				}
				i := int(next.Add(1) - 1)
				perConn[c] = append(perConn[c], post(client, proc.url, requestAt(seed, i)))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	after, err := fetchCounts(client, proc.url)
	t.problem(err)
	stop()
	for _, rs := range perConn {
		all = append(all, rs...)
	}

	v := checkResponses(t, all)
	var instFPs, colFPs []uint64
	var rounds int
	var words int64
	for _, r := range hot {
		k := keyOf(r)
		out, ok := v.outputs[k]
		if !ok {
			t.problem(fmt.Errorf("hot request %+v has no valid response", r))
			continue
		}
		instFPs = append(instFPs, v.instFP[instKey{r.Scenario, r.Seed}])
		colFPs = append(colFPs, out.colFP)
		rounds += out.rounds
		words += out.words
	}
	hotPin := combinedPin(instFPs, colFPs, rounds, words)
	pinned, perr := checkPin("serve-mix", seed, hotPin)
	t.problem(perr)
	fmt.Printf("input: serve-mix seed=%d n=%d hot=%d keys, %d distinct keys solved\n", seed, serveN, len(hot), len(v.outputs))
	fmt.Printf("output: hot set instance_fp=%s coloring_fp=%s rounds=%d words=%d\n",
		hotPin.InstanceFP, hotPin.ColoringFP, hotPin.Rounds, hotPin.Words)

	var lat, hits, misses, hitEl, missEl, overhead []float64
	for i, r := range all {
		if r.setup || !v.ok[i] {
			continue
		}
		l := r.latency.Seconds()
		lat = append(lat, l)
		overhead = append(overhead, (r.latency - r.elapsed).Seconds())
		if r.hit {
			hits, hitEl = append(hits, l), append(hitEl, r.elapsed.Seconds())
		} else {
			misses, missEl = append(misses, l), append(missEl, r.elapsed.Seconds())
		}
	}
	if traced {
		t.set("server.hit_elapsed_p50_s", median(hitEl), "X-CCServe-Elapsed-Us of hits")
		t.set("server.miss_elapsed_p50_s", median(missEl), "X-CCServe-Elapsed-Us of misses")
		t.set("http.overhead_p50_s", median(overhead), "client latency minus worker elapsed: HTTP, JSON, instance build, queue")
		t.set("server.cache_hit_frac", ratio(float64(after.CacheHits-before.CacheHits), float64(after.Jobs-before.Jobs)),
			"cache hits over jobs during the timed loop")
		t.set("server.rejected", float64(after.Rejected-before.Rejected), "")
		setServeLayerMetrics(t, v, median(lat), rounds, words)
		t.problem(writeSpans("serve-mix", seed, spanRecords(all)))
		return t
	}
	tailV, tailNote := tailMetric(lat)
	n := len(lat)
	t.set("setup_s", median(setups), fmt.Sprintf("median of %d boots: exec to /healthz, then the hot set solved once", len(setups)))
	t.set("cold_solve_s", median(colds), fmt.Sprintf("median of %d hot-set requests on fresh servers, all misses", len(colds)))
	t.set("op_p50_s", median(lat), fmt.Sprintf("%d requests, %d connections", n, conns))
	t.set("op_tail_s", tailV, tailNote)
	t.set("ops_per_s", ratio(float64(n), wall), fmt.Sprintf("over %.1fs", wall))
	t.set("hit_p50_s", median(hits), fmt.Sprintf("%d cache hits", len(hits)))
	t.set("miss_p50_s", median(misses), fmt.Sprintf("%d cache misses", len(misses)))
	t.set("peak_rss_mb", slices.Max(rss), "ccserve")
	t.set("words_moved", float64(words), "hot set, each key solved once; "+pinNote(pinned))
	return t
}

type solveKey struct {
	Scenario string
	Model    engine.Model
	Seed     uint64
}

type instKey struct {
	Scenario string
	Seed     uint64
}

func keyOf(r request) solveKey { return solveKey{r.Scenario, r.Model, r.Seed} }

type keyOutput struct {
	colFP  uint64
	rounds int
	words  int64
}

// verified is what checkResponses established.
type verified struct {
	outputs        map[solveKey]keyOutput
	instFP         map[instKey]uint64
	ok             []bool // per response, in order: it passed every check
	gen, fp, check []float64
	instWords      []float64
}

// checkResponses decodes every response, requires all responses for one key
// to carry the same coloring, rounds and words, and verifies each key's
// coloring against a locally regenerated instance. It counts every response
// as one op, failed if any of this does not hold.
func checkResponses(t *tally, all []response) *verified {
	type decoded struct {
		Rounds     int           `json:"rounds"`
		WordsMoved int64         `json:"words_moved"`
		Coloring   []graph.Color `json:"coloring"`
	}
	v := &verified{outputs: map[solveKey]keyOutput{}, instFP: map[instKey]uint64{}, ok: make([]bool, len(all))}
	colorings := map[solveKey][]graph.Color{}
	errs := make([]error, len(all))
	for i := range all {
		r := &all[i]
		switch {
		case r.err != nil:
			errs[i] = r.err
			continue
		case r.status != http.StatusOK:
			errs[i] = fmt.Errorf("%+v: HTTP %d: %.200s", r.req, r.status, r.body)
			continue
		}
		var d decoded
		if err := json.Unmarshal(r.body, &d); err != nil {
			errs[i] = fmt.Errorf("%+v: decoding the response: %w", r.req, err)
			continue
		}
		out := keyOutput{verify.ColoringFingerprint(d.Coloring), d.Rounds, d.WordsMoved}
		k := keyOf(r.req)
		if prev, seen := v.outputs[k]; !seen {
			v.outputs[k] = out
			colorings[k] = d.Coloring
		} else if prev != out {
			errs[i] = fmt.Errorf("%+v: response %+v differs from an earlier one %+v", r.req, out, prev)
		}
	}
	keys := make([]solveKey, 0, len(colorings))
	for k := range colorings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.Model < b.Model
	})
	insts := map[instKey]*graph.Instance{}
	bad := map[solveKey]error{}
	for _, k := range keys {
		ik := instKey{k.Scenario, k.Seed}
		inst := insts[ik]
		if inst == nil {
			t0 := time.Now()
			in, err := serveInstance(k.Scenario, k.Seed)
			if err != nil {
				bad[k] = err
				continue
			}
			t1 := time.Now()
			v.instFP[ik] = verify.InstanceFingerprint(in)
			v.gen = append(v.gen, t1.Sub(t0).Seconds())
			v.fp = append(v.fp, time.Since(t1).Seconds())
			v.instWords = append(v.instWords, float64(graph.InstanceWordCount(in)))
			inst, insts[ik] = in, in
		}
		t0 := time.Now()
		if err := verify.ListColoring(inst, colorings[k]); err != nil {
			bad[k] = fmt.Errorf("%+v: %w", k, err)
		}
		v.check = append(v.check, time.Since(t0).Seconds())
	}
	for i := range all {
		r := &all[i]
		err := errs[i]
		if err == nil {
			err = bad[keyOf(r.req)]
		}
		v.ok[i] = t.op(err)
	}
	for k := range bad {
		delete(v.outputs, k)
	}
	return v
}

// setServeLayerMetrics sets the per-layer metrics serve-mix can see from
// outside the server: the local regeneration and verification of its
// instances, and the hot set's fabric counts. The solver layers run inside
// ccserve, so their timings read 0 here.
func setServeLayerMetrics(t *tally, v *verified, opWall float64, rounds int, words int64) {
	const local = "median over the run's instances, regenerated locally to verify responses"
	fpWords := median(v.instWords)
	t.set("graph.generate_s", median(v.gen), local)
	t.set("graph.instance_words", fpWords, "")
	t.set("hashing.fingerprint_s", median(v.fp), local)
	t.set("hashing.ns_per_word", ratio(median(v.fp)*1e9, fpWords), "")
	t.set("verify.list_coloring_s", median(v.check), local)
	t.set("fabric.rounds", float64(rounds), "hot set")
	t.set("fabric.words", float64(words), "hot set")
	t.set("fabric.words_per_round", ratio(float64(words), float64(rounds)), "hot set")
	t.set("trace.op_wall_s", opWall, "median client latency")
	t.set("trace.unattributed_s", 0, "client latency splits into worker elapsed and overhead by definition")
	t.set("trace.overhead_frac", 0, "the traced run adds no instrumentation to the server")
	t.zeroMissing(perLayer, "inside ccserve: not visible from outside")
}

// spanRecord is one serve-mix request as written to the span file.
type spanRecord struct {
	Scenario  string `json:"scenario"`
	Model     string `json:"model"`
	Seed      uint64 `json:"seed"`
	Setup     bool   `json:"setup"`
	Status    int    `json:"status"`
	Hit       bool   `json:"hit"`
	LatencyNS int64  `json:"latency_ns"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

func spanRecords(all []response) []spanRecord {
	out := make([]spanRecord, len(all))
	for i, r := range all {
		out[i] = spanRecord{r.req.Scenario, string(r.req.Model), r.req.Seed, r.setup, r.status, r.hit,
			r.latency.Nanoseconds(), r.elapsed.Nanoseconds()}
	}
	return out
}
