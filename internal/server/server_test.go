package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ccolor"
	"ccolor/internal/scenario"
)

func gnpSpec(t testing.TB, model ccolor.Model, n int, p float64, seed uint64) Spec {
	t.Helper()
	g, err := ccolor.GNP(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var inst *ccolor.Instance
	if model == ccolor.ModelLowSpace {
		inst, err = ccolor.DegPlus1Instance(g, int64(4*n), seed)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		inst = ccolor.DeltaPlus1Instance(g)
	}
	spec := Spec{Model: model, Inst: inst}
	if model == ccolor.ModelMPC {
		// The default space factor (64·n words) fits these small test
		// instances on one machine, moving zero words; tighten it so the
		// cluster actually spans machines and the ledger sees traffic.
		spec.MPCSpaceFactor = 16
	}
	return spec
}

// TestKeyForPinned pins two cache keys, digest and exactness sum, so a
// change to how instances are drawn, encoded or hashed cannot silently
// re-address the cache: a (deg+1)-list gnp job on lowspace, and a registry
// powerlaw job whose encoding spans several stream chunks on mpc.
func TestKeyForPinned(t *testing.T) {
	lists := gnpSpec(t, ccolor.ModelLowSpace, 300, 0.05, 7)
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Instance(4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec      Spec
		digest    string
		sumPrefix string
	}{
		{lists, "0b989c4b3f42501f", "147fca9ffda44157"},
		{Spec{Model: ccolor.ModelMPC, Inst: inst}, "0627a1f38a2459e9", "0c7ab3ca5ee4b842"},
	} {
		k := keyFor(&c.spec)
		if sum := fmt.Sprintf("%x", k.sum[:8]); k.Hex() != c.digest || sum != c.sumPrefix {
			t.Fatalf("%s key %s (sum %s…), want %s (sum %s…)", c.spec.Model, k.Hex(), sum, c.digest, c.sumPrefix)
		}
	}
}

func TestKeyForDeterministicAndDiscriminating(t *testing.T) {
	a := gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 7)
	b := gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 7) // same generator inputs
	if ka, kb := keyFor(&a), keyFor(&b); ka != kb {
		t.Fatalf("identical specs produced different keys: %s vs %s", ka.Hex(), kb.Hex())
	}
	c := gnpSpec(t, ccolor.ModelMPC, 48, 0.1, 7)
	if keyFor(&a).digest == keyFor(&c).digest {
		t.Fatalf("model change did not change the key")
	}
	d := gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 8)
	if keyFor(&a).digest == keyFor(&d).digest {
		t.Fatalf("instance change did not change the key")
	}
	p := ccolor.DefaultParams()
	p.BatchWidth = 4
	e := a
	e.Params = &p
	if keyFor(&a).digest == keyFor(&e).digest {
		t.Fatalf("params change did not change the key")
	}
}

func TestCacheHitByteIdenticalResult(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Drain(context.Background())

	spec := gnpSpec(t, ccolor.ModelCClique, 64, 0.08, 3)
	first, err := srv.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first execution reported cached")
	}
	second, err := srv.Do(context.Background(), gnpSpec(t, ccolor.ModelCClique, 64, 0.08, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("identical instance missed the cache")
	}
	if first.Key != second.Key {
		t.Fatalf("content addresses differ: %s vs %s", first.Key, second.Key)
	}
	// Byte-identical: the serialized reports must match exactly.
	b1, err := json.Marshal(first.Report)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(second.Report)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("cached report differs from computed report")
	}
	if hits, _ := srv.cache.Stats(); hits != 1 {
		t.Fatalf("expected exactly 1 cache hit, got %d", hits)
	}
}

func TestConcurrentInFlightAllModels(t *testing.T) {
	const perModel = 24 // 72 jobs total, all admitted concurrently
	models := []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}
	srv := New(Config{Workers: 8, QueueDepth: 3 * perModel})
	defer srv.Drain(context.Background())

	type outcome struct {
		model ccolor.Model
		res   *Result
		err   error
	}
	results := make(chan outcome, 3*perModel)
	var wg sync.WaitGroup
	for _, model := range models {
		for i := 0; i < perModel; i++ {
			wg.Add(1)
			go func(model ccolor.Model, i int) {
				defer wg.Done()
				// Distinct seeds keep most jobs out of the cache so the
				// pool really executes them.
				spec := gnpSpec(t, model, 40+i, 0.1, uint64(i))
				res, err := srv.Do(context.Background(), spec)
				results <- outcome{model, res, err}
			}(model, i)
		}
	}
	wg.Wait()
	close(results)
	counts := make(map[ccolor.Model]int)
	for o := range results {
		if o.err != nil {
			t.Fatalf("%s job failed: %v", o.model, o.err)
		}
		rep := o.res.Report
		if rep.Rounds <= 0 {
			t.Fatalf("%s job missing round telemetry: %+v", o.model, rep)
		}
		// A single-machine MPC cluster legitimately moves zero cross-machine
		// words; everywhere else traffic must be visible per job.
		if rep.WordsMoved <= 0 && !(o.model == ccolor.ModelMPC && rep.Machines == 1) {
			t.Fatalf("%s job missing word telemetry: %+v", o.model, rep)
		}
		if !rep.Coloring.Complete() {
			t.Fatalf("%s job returned incomplete coloring", o.model)
		}
		counts[o.model]++
	}
	for _, model := range models {
		if counts[model] != perModel {
			t.Fatalf("model %s completed %d/%d jobs", model, counts[model], perModel)
		}
	}
	snap := srv.Metrics()
	if snap.JobsTotal != 3*perModel {
		t.Fatalf("metrics counted %d jobs, want %d", snap.JobsTotal, 3*perModel)
	}
	for _, model := range models {
		ms := snap.PerModel[string(model)]
		if ms.Jobs != perModel || ms.Latency.Samples == 0 {
			t.Fatalf("per-model metrics incomplete for %s: %+v", model, ms)
		}
		if ms.RoundsTotal == 0 || ms.WordsTotal == 0 {
			t.Fatalf("ledger rollups missing for %s: %+v", model, ms)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())

	const total = 64
	var jobs []*Job
	rejected := 0
	for i := 0; i < total; i++ {
		// Same spec every time: after the first execution these are cache
		// hits, but admission happens before the cache is consulted, so the
		// bounded queue still overflows under a submission burst.
		job, err := srv.Submit(gnpSpec(t, ccolor.ModelCClique, 72, 0.1, 1))
		if errors.Is(err, ErrQueueFull) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if rejected == 0 {
		t.Fatalf("no submission hit backpressure (total=%d, accepted=%d)", total, len(jobs))
	}
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if snap := srv.Metrics(); snap.Rejected != uint64(rejected) {
		t.Fatalf("metrics rejected=%d, want %d", snap.Rejected, rejected)
	}
}

func TestDrainStopsAdmissionAndFinishesWork(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 32})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		job, err := srv.Submit(gnpSpec(t, ccolor.ModelCClique, 48, 0.1, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s in state %s after drain", j.ID, st)
		}
	}
	if _, err := srv.Submit(gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}
	if err := srv.Drain(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestAsyncJobLookup(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Drain(context.Background())

	job, err := srv.Submit(gnpSpec(t, ccolor.ModelLowSpace, 48, 0.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := srv.Job(job.ID)
	if !ok || got != job {
		t.Fatalf("job %s not found after submit", job.ID)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != StateDone || res.Report.LowTrace == nil {
		t.Fatalf("lowspace job missing telemetry: state=%s", job.State())
	}
	if _, ok := srv.Job("job-does-not-exist"); ok {
		t.Fatalf("lookup of unknown job succeeded")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 0)
	specs := []Spec{
		gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 1),
		gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 2),
		gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 3),
	}
	keys := make([]cacheKey, len(specs))
	for i := range specs {
		keys[i] = keyFor(&specs[i])
		c.Put(keys[i], &ccolor.Report{Model: ccolor.ModelCClique, Rounds: i + 1})
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	for i := 1; i < 3; i++ {
		rep, ok := c.Get(keys[i])
		if !ok || rep.Rounds != i+1 {
			t.Fatalf("entry %d missing or wrong after eviction", i)
		}
	}
	// Re-Get keys[1] so keys[2] is LRU, then insert a new entry.
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatal("warm entry missing")
	}
	extra := gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 4)
	c.Put(keyFor(&extra), &ccolor.Report{})
	if _, ok := c.Get(keys[2]); ok {
		t.Fatalf("LRU order not respected: keys[2] should have been evicted")
	}
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatalf("recently used entry evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	defer srv.Drain(context.Background())
	for i := 0; i < 2; i++ {
		res, err := srv.Do(context.Background(), gnpSpec(t, ccolor.ModelCClique, 40, 0.1, 11))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("run %d served from disabled cache", i)
		}
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain(context.Background())
	if _, err := srv.Submit(Spec{}); err == nil {
		t.Fatal("empty spec admitted")
	}
	spec := gnpSpec(t, ccolor.ModelCClique, 16, 0.2, 1)
	spec.Model = ccolor.Model("quantum")
	if _, err := srv.Submit(spec); err == nil {
		t.Fatal("unknown model admitted")
	}
}

func TestFingerprintCollisionSafety(t *testing.T) {
	// Force a digest collision by inserting two entries under the same
	// digest with different exactness sums; Get must distinguish them.
	c := NewCache(4, 0)
	k1 := cacheKey{digest: 42, sum: sumWords([]uint64{1, 2, 3})}
	k2 := cacheKey{digest: 42, sum: sumWords([]uint64{1, 2, 4})}
	c.Put(k1, &ccolor.Report{Rounds: 1})
	c.Put(k2, &ccolor.Report{Rounds: 2})
	r1, ok1 := c.Get(k1)
	r2, ok2 := c.Get(k2)
	if !ok1 || !ok2 || r1.Rounds != 1 || r2.Rounds != 2 {
		t.Fatalf("colliding digests not disambiguated: %v %v", r1, r2)
	}
}

func TestSingleFlightCoalescesIdenticalJobs(t *testing.T) {
	srv := New(Config{Workers: 8, QueueDepth: 64})
	defer srv.Drain(context.Background())

	spec := gnpSpec(t, ccolor.ModelCClique, 96, 0.08, 21)
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Do(context.Background(), spec); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Whether a request coalesced onto the in-flight solve or hit the cache
	// afterwards, exactly one actual solve must have run: the rounds rollup
	// (only incremented by executed solves) equals one run's rounds.
	solo, err := ccolor.Solve(spec.Inst, &ccolor.Options{Model: ccolor.ModelCClique})
	if err != nil {
		t.Fatal(err)
	}
	ms := srv.Metrics().PerModel[string(ccolor.ModelCClique)]
	if ms.Jobs != clients {
		t.Fatalf("jobs=%d, want %d", ms.Jobs, clients)
	}
	if ms.RoundsTotal != uint64(solo.Rounds) {
		t.Fatalf("rounds rollup %d, want exactly one solve's %d (duplicate work ran)",
			ms.RoundsTotal, solo.Rounds)
	}
	if ms.CacheHits != clients-1 {
		t.Fatalf("cache hits %d, want %d", ms.CacheHits, clients-1)
	}
}

func TestEphemeralJobsNotRetained(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Drain(context.Background())

	job, err := srv.SubmitEphemeral(gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Job(job.ID); ok {
		t.Fatalf("ephemeral job %s is queryable", job.ID)
	}
	tracked, err := srv.Submit(gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 14))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracked.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Job(tracked.ID); !ok {
		t.Fatalf("tracked job %s lost after finishing", tracked.ID)
	}
}

func TestMetricsSnapshotJSONStable(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	if _, err := srv.Do(context.Background(), gnpSpec(t, ccolor.ModelCClique, 32, 0.1, 1)); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("metrics snapshot not serializable: %v", err)
	}
	if snap.QueueCap != 8 {
		t.Fatalf("queue capacity %d, want 8", snap.QueueCap)
	}
}

// TestVerifyOnSolve exercises the opt-in oracle mode: fresh solves are
// re-verified (and counted), cache hits are not re-verified (the cached
// report was already checked), and the mode is off by default.
func TestVerifyOnSolve(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8, VerifyOnSolve: true})
	defer srv.Drain(context.Background())
	spec := gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 5)
	for i := 0; i < 2; i++ { // miss, then hit
		res, err := srv.Do(context.Background(), gnpSpec(t, ccolor.ModelCClique, 48, 0.1, 5))
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 1; res.Cached != want {
			t.Fatalf("request %d: cached = %v, want %v", i, res.Cached, want)
		}
	}
	// A second model exercises per-model attribution.
	if _, err := srv.Do(context.Background(), gnpSpec(t, ccolor.ModelLowSpace, 48, 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	cc := snap.PerModel[string(ccolor.ModelCClique)]
	if cc.Verified != 1 || cc.VerifyFailures != 0 {
		t.Fatalf("cclique verified/failures = %d/%d, want 1/0 (cache hits are not re-verified)",
			cc.Verified, cc.VerifyFailures)
	}
	ls := snap.PerModel[string(ccolor.ModelLowSpace)]
	if ls.Verified != 1 || ls.VerifyFailures != 0 {
		t.Fatalf("lowspace verified/failures = %d/%d, want 1/0", ls.Verified, ls.VerifyFailures)
	}

	// Default config: the oracle never runs.
	off := New(Config{Workers: 1, QueueDepth: 4})
	defer off.Drain(context.Background())
	if _, err := off.Do(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if ms := off.Metrics().PerModel[string(ccolor.ModelCClique)]; ms.Verified != 0 || ms.VerifyFailures != 0 {
		t.Fatalf("verify counters moved with the mode off: %+v", ms)
	}
}

func BenchmarkDoCacheHit(b *testing.B) {
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer srv.Drain(context.Background())
	spec := gnpSpec(b, ccolor.ModelCClique, 128, 0.05, 1)
	if _, err := srv.Do(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Do(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("expected cache hit")
		}
	}
}

func ExampleServer() {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	g, _ := ccolor.GNP(64, 0.1, 1)
	res, _ := srv.Do(context.Background(), Spec{Model: ccolor.ModelCClique, Inst: ccolor.DeltaPlus1Instance(g)})
	fmt.Println(res.Report.Coloring.Complete(), res.Cached)
	// Output: true false
}
