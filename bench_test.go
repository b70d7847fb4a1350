// This file is the benchmark harness: one testing.B target per
// reproduction experiment (the expt.Registry entries), each reporting
// its domain metrics (model rounds, recursion depth, space) alongside
// wall-clock, plus micro-benchmarks of the hot substrate paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock is simulation speed, not the paper's testbed; the
// claims live in the reported custom metrics.
package ccolor_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ccolor"
	"ccolor/internal/baseline"
	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/expt"
	"ccolor/internal/graph"
	"ccolor/internal/lowspace"
	"ccolor/internal/mis"
	"ccolor/internal/scenario"
	"ccolor/internal/server"
	"ccolor/internal/verify"
)

// benchCfg keeps the harness fast enough for -bench=. while exercising
// every code path; cmd/ccbench runs the full-scale tables.
var benchCfg = expt.Config{Scale: 0.5, Seed: 2020}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := expt.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchCfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			rows := 0
			for _, t := range tables {
				rows += len(t.Rows)
			}
			b.ReportMetric(float64(rows), "table-rows")
		}
	}
}

func BenchmarkE1RoundsVsN(b *testing.B)      { runExperiment(b, "E1") }
func BenchmarkE2RecursionDepth(b *testing.B) { runExperiment(b, "E2") }
func BenchmarkE3BadNodes(b *testing.B)       { runExperiment(b, "E3") }
func BenchmarkE4Invariant(b *testing.B)      { runExperiment(b, "E4") }
func BenchmarkE5DecaySeries(b *testing.B)    { runExperiment(b, "E5") }
func BenchmarkE6MPCSpace(b *testing.B)       { runExperiment(b, "E6") }
func BenchmarkE7LowSpace(b *testing.B)       { runExperiment(b, "E7") }
func BenchmarkE8SeedSearch(b *testing.B)     { runExperiment(b, "E8") }
func BenchmarkE9Bandwidth(b *testing.B)      { runExperiment(b, "E9") }
func BenchmarkE10Families(b *testing.B)      { runExperiment(b, "E10") }

func BenchmarkA1RandomVsDerand(b *testing.B) { runExperiment(b, "A1") }
func BenchmarkA2BinExponent(b *testing.B)    { runExperiment(b, "A2") }
func BenchmarkA3BatchWidth(b *testing.B)     { runExperiment(b, "A3") }

// --- direct solver benchmarks (per-workload, with domain metrics) ---

func benchSolve(b *testing.B, n, d int) {
	b.Helper()
	g, err := graph.RandomRegular(n, d, uint64(n+d))
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	var rounds, depth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cclique.New(n)
		col, tr, err := core.Solve(nw, nw.MsgWords(), inst, core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if err := verify.ListColoring(inst, col); err != nil {
			b.Fatal(err)
		}
		rounds, depth = nw.Ledger().Rounds(), tr.MaxRecursionDepth()
	}
	b.ReportMetric(float64(rounds), "model-rounds")
	b.ReportMetric(float64(depth), "recursion-depth")
}

func BenchmarkColorReduceN512D16(b *testing.B)  { benchSolve(b, 512, 16) }
func BenchmarkColorReduceN1024D16(b *testing.B) { benchSolve(b, 1024, 16) }
func BenchmarkColorReduceN1024D64(b *testing.B) { benchSolve(b, 1024, 64) }

func BenchmarkRandTrialN1024D16(b *testing.B) {
	g, err := graph.RandomRegular(1024, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cclique.New(g.N())
		if _, _, err := baseline.RandTrial(nw, nw.MsgWords(), inst, 7); err != nil {
			b.Fatal(err)
		}
		rounds = nw.Ledger().Rounds()
	}
	b.ReportMetric(float64(rounds), "model-rounds")
}

func BenchmarkSeqGreedyN1024D16(b *testing.B) {
	g, err := graph.RandomRegular(1024, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.SeqGreedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowSpaceN512(b *testing.B) {
	g, err := graph.RandomRegular(512, 22, 9)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := graph.DegPlus1Instance(g, 1<<20, 5)
	if err != nil {
		b.Fatal(err)
	}
	var crit int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, tr, err := lowspace.Solve(inst, lowspace.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if err := verify.ListColoring(inst, col); err != nil {
			b.Fatal(err)
		}
		crit = tr.CriticalRounds
	}
	b.ReportMetric(float64(crit), "critical-rounds")
}

// --- cold-solve path (ccolor.Solve end to end; baseline in BENCH_solve.json) ---

// benchSolveModel drives the unified Solve facade — the exact path a ccserve
// cache miss takes — on fixed GNP and power-law instances, reporting
// allocations (the flat-buffer fabric's target metric) via -benchmem.
func benchSolveModel(b *testing.B, model ccolor.Model, build func() (*graph.Instance, error)) {
	b.Helper()
	inst, err := build()
	if err != nil {
		b.Fatal(err)
	}
	opts := &ccolor.Options{Model: model}
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ccolor.Solve(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds = rep.Rounds
	}
	b.ReportMetric(float64(rounds), "model-rounds")
}

func solveGNPInstance(n int, p float64, seed uint64) func() (*graph.Instance, error) {
	return func() (*graph.Instance, error) {
		g, err := graph.GNP(n, p, seed)
		if err != nil {
			return nil, err
		}
		return graph.DeltaPlus1Instance(g), nil
	}
}

func solvePowerLawInstance(n, mAttach int, seed uint64, degList bool) func() (*graph.Instance, error) {
	return func() (*graph.Instance, error) {
		g, err := graph.PowerLaw(n, mAttach, seed)
		if err != nil {
			return nil, err
		}
		if degList {
			return graph.DegPlus1Instance(g, 1<<20, seed+1)
		}
		return graph.ListInstance(g, 1<<20, seed+1)
	}
}

func BenchmarkSolveCClique(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelCClique, solveGNPInstance(256, 0.05, 11))
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelCClique, solvePowerLawInstance(256, 4, 12, false))
	})
}

func BenchmarkSolveMPC(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelMPC, solveGNPInstance(256, 0.05, 11))
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelMPC, solvePowerLawInstance(256, 4, 12, false))
	})
}

func BenchmarkSolveLowSpace(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelLowSpace, func() (*graph.Instance, error) {
			g, err := graph.GNP(256, 0.05, 11)
			if err != nil {
				return nil, err
			}
			return graph.DegPlus1Instance(g, 1<<20, 13)
		})
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelLowSpace, solvePowerLawInstance(256, 4, 12, true))
	})
	// Registry-scenario workloads extend the alloc gate to the golden
	// families: ring-of-cliques is the implicit-clique MIS reduction's
	// native shape; rmat is the degree-skew adversary.
	b.Run("ring256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelLowSpace, solveScenarioInstance("ring-of-cliques", 256, 11))
	})
	b.Run("rmat256", func(b *testing.B) {
		benchSolveModel(b, ccolor.ModelLowSpace, solveScenarioInstance("rmat", 256, 11))
	})
}

// --- set-problem solve path (MIS / β-ruling set through the facade) ---

// benchSolveSetProblem drives the registry set problems through the same
// facade path as the coloring benchmarks, cold (pooled session checkout)
// or warm (one pinned session); BENCH_solve.json pins both and benchguard
// holds the line in CI. The congested-clique backend is the canonical
// model here — the one the paper's MIS reduction (Theorem 1.2) targets.
func benchSolveSetProblem(b *testing.B, prob ccolor.Problem, warm bool) {
	b.Helper()
	inst, err := solveGNPInstance(256, 0.05, 11)()
	if err != nil {
		b.Fatal(err)
	}
	opts := &ccolor.Options{Model: ccolor.ModelCClique, Problem: prob}
	solve := func() (*ccolor.Report, error) { return ccolor.Solve(inst, opts) }
	if warm {
		sess, err := ccolor.NewSolverSession(ccolor.ModelCClique)
		if err != nil {
			b.Fatal(err)
		}
		solve = func() (*ccolor.Report, error) { return sess.Solve(inst, opts) }
		if _, err := solve(); err != nil { // prime the session workspaces
			b.Fatal(err)
		}
	}
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := solve()
		if err != nil {
			b.Fatal(err)
		}
		size = rep.SetSize
	}
	b.ReportMetric(float64(size), "set-size")
}

func BenchmarkSolveMIS(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) { benchSolveSetProblem(b, ccolor.ProblemMIS, false) })
}

func BenchmarkSolveRulingSet(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) { benchSolveSetProblem(b, ccolor.ProblemRulingSet, false) })
}

func BenchmarkSolveWarmMIS(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) { benchSolveSetProblem(b, ccolor.ProblemMIS, true) })
}

func BenchmarkSolveWarmRulingSet(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) { benchSolveSetProblem(b, ccolor.ProblemRulingSet, true) })
}

// --- warm-solve path (one solver session reused across iterations) ---

// benchSolveWarm drives a single pinned ccolor.SolverSession — the exact
// path a steady-state ccserve worker takes after its first job of a model —
// on the same instances as the cold benchmarks. The delta between
// BenchmarkSolveX and BenchmarkSolveWarmX is the per-solve construction
// cost the session engine amortizes away; BENCH_solve.json pins both and
// cmd/benchguard holds the warm allocs/op line in CI.
func benchSolveWarm(b *testing.B, model ccolor.Model, build func() (*graph.Instance, error)) {
	b.Helper()
	inst, err := build()
	if err != nil {
		b.Fatal(err)
	}
	sess, err := ccolor.NewSolverSession(model)
	if err != nil {
		b.Fatal(err)
	}
	opts := &ccolor.Options{Model: model}
	// One priming solve sizes the session's workspaces; the timed loop
	// measures the steady state.
	if _, err := sess.Solve(inst, opts); err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.Solve(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds = rep.Rounds
	}
	b.ReportMetric(float64(rounds), "model-rounds")
}

func BenchmarkSolveWarmCClique(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelCClique, solveGNPInstance(256, 0.05, 11))
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelCClique, solvePowerLawInstance(256, 4, 12, false))
	})
}

func BenchmarkSolveWarmMPC(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelMPC, solveGNPInstance(256, 0.05, 11))
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelMPC, solvePowerLawInstance(256, 4, 12, false))
	})
}

func BenchmarkSolveWarmLowSpace(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelLowSpace, func() (*graph.Instance, error) {
			g, err := graph.GNP(256, 0.05, 11)
			if err != nil {
				return nil, err
			}
			return graph.DegPlus1Instance(g, 1<<20, 13)
		})
	})
	b.Run("powerlaw256", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelLowSpace, solvePowerLawInstance(256, 4, 12, true))
	})
}

// --- scaling curve (large-instance tier; exponent gated by benchguard) ---

// benchSolveScale is a warm congested-clique solve of the registry gnp
// scenario at size n — one point on the tier's scaling curve. The pair of
// sizes below differ 16x in n (and, at gnp's fixed expected degree, 16x in
// m), so cmd/benchguard's -scaling gate can fit the growth exponent
// log(ns_large/ns_small)/log(16) and fail CI when a superlinear hotspot
// creeps back into the solve path. The ratio basis makes the gate robust to
// common-mode runner slowdowns that would flake an absolute ns gate.
func benchSolveScale(b *testing.B, n int) {
	b.Helper()
	benchSolveWarm(b, ccolor.ModelCClique, solveScenarioInstance("gnp", n, 11))
}

func BenchmarkSolveScaling(b *testing.B) {
	b.Run("gnp4k", func(b *testing.B) { benchSolveScale(b, 1<<12) })
	b.Run("gnp64k", func(b *testing.B) { benchSolveScale(b, 1<<16) })
	// The powerlaw pair scales the list-palette discipline — wide packed
	// domains where the hybrid sparse/dense palette representations, not the
	// delivery fabric, dominate. Its exponent is gated separately in CI: the
	// gnp pair cannot see a superlinear slide in the palette scan paths.
	b.Run("powerlaw4k", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelCClique, solveScenarioInstance("powerlaw", 1<<12, 11))
	})
	b.Run("powerlaw64k", func(b *testing.B) {
		benchSolveWarm(b, ccolor.ModelCClique, solveScenarioInstance("powerlaw", 1<<16, 11))
	})
}

// --- multicore round delivery (GOMAXPROCS sweep; efficiency gated in CI) ---

// BenchmarkSolveParallel sweeps GOMAXPROCS over the warm gnp64k solve — the
// workload whose rounds clear fabric.DeliverParallelMinWords, so Deliver
// splits each round's senders into one block per worker of the session
// pool. At p1 every round runs as one block; cmd/benchguard's -parallel gate
// requires p4 to beat it by the configured speedup on CI's multicore
// runners. On a single-core machine the sweep still runs (the blocks are
// exercised through the pool) but all points measure alike; the gate is
// only meaningful where the hardware can actually overlap blocks.
func BenchmarkSolveParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gnp64k/p%d", p), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(prev)
			benchSolveWarm(b, ccolor.ModelCClique, solveScenarioInstance("gnp", 1<<16, 11))
		})
	}
}

// --- traced warm solves (Options.Trace on; pins the tracing overhead) ---

// benchSolveWarmTraced is benchSolveWarm with telemetry tracing enabled:
// every solve allocates a recorder and a span per phase transition. The gap
// to the untraced warm numbers is the price of -trace / ccserve tracing; the
// untraced benchmarks above pin that the nil-recorder hot path stays free.
func benchSolveWarmTraced(b *testing.B, model ccolor.Model, build func() (*graph.Instance, error)) {
	b.Helper()
	inst, err := build()
	if err != nil {
		b.Fatal(err)
	}
	sess, err := ccolor.NewSolverSession(model)
	if err != nil {
		b.Fatal(err)
	}
	opts := &ccolor.Options{Model: model, Trace: true}
	if _, err := sess.Solve(inst, opts); err != nil {
		b.Fatal(err)
	}
	var spans int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sess.Solve(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Telemetry == nil {
			b.Fatal("traced solve produced no telemetry")
		}
		spans = len(rep.Telemetry.Spans)
	}
	b.ReportMetric(float64(spans), "trace-spans")
}

func BenchmarkSolveWarmCCliqueTraced(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarmTraced(b, ccolor.ModelCClique, solveGNPInstance(256, 0.05, 11))
	})
}

func BenchmarkSolveWarmMPCTraced(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarmTraced(b, ccolor.ModelMPC, solveGNPInstance(256, 0.05, 11))
	})
}

func BenchmarkSolveWarmLowSpaceTraced(b *testing.B) {
	b.Run("gnp256", func(b *testing.B) {
		benchSolveWarmTraced(b, ccolor.ModelLowSpace, func() (*graph.Instance, error) {
			g, err := graph.GNP(256, 0.05, 11)
			if err != nil {
				return nil, err
			}
			return graph.DegPlus1Instance(g, 1<<20, 13)
		})
	})
}

func solveScenarioInstance(name string, n int, seed uint64) func() (*graph.Instance, error) {
	return func() (*graph.Instance, error) {
		spec, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		return spec.Instance(n, seed)
	}
}

// --- serving-layer throughput (internal/server; baseline in BENCH_serve.json) ---

// benchServe pushes (Δ+1)-coloring jobs through the full service path —
// admission, bounded queue, worker pool, content-addressed cache — at the
// given client concurrency. Warm mode reuses one instance so every job
// after the first is a cache hit; cold mode disables the cache and cycles
// through distinct instances (seeded generation) so every job solves from
// scratch — single-flight coalescing would otherwise collapse concurrent
// identical jobs even with the cache off.
func benchServe(b *testing.B, warm bool, clients int) {
	b.Helper()
	cacheEntries := 0 // default-on
	specCount := 1
	if !warm {
		cacheEntries = -1
		specCount = 256
	}
	srv := server.New(server.Config{Workers: 4, QueueDepth: 4096, CacheEntries: cacheEntries})
	defer srv.Drain(context.Background())
	specs := make([]server.Spec, specCount)
	for i := range specs {
		g, err := graph.RandomRegular(256, 16, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = server.Spec{Model: ccolor.ModelCClique, Inst: graph.DeltaPlus1Instance(g)}
	}
	if _, err := srv.Do(context.Background(), specs[0]); err != nil {
		b.Fatal(err)
	}
	// A manual pool pins the client count exactly; b.RunParallel with
	// SetParallelism would multiply by GOMAXPROCS. b.Fatal must not be
	// called off the benchmark goroutine, hence b.Error + return.
	var next, iters atomic.Uint64
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := iters.Add(1)
				if i > uint64(b.N) {
					return
				}
				spec := specs[next.Add(1)%uint64(len(specs))]
				res, err := srv.Do(context.Background(), spec)
				if err != nil {
					b.Error(err)
					return
				}
				if warm && !res.Cached {
					b.Error("warm run missed the cache")
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	snap := srv.Metrics()
	ms := snap.PerModel[string(ccolor.ModelCClique)]
	b.ReportMetric(ms.CacheHitRate, "cache-hit-rate")
	b.ReportMetric(float64(snap.JobsTotal), "jobs")
}

func BenchmarkServeColorDeltaPlus1(b *testing.B) {
	b.Run("warm", func(b *testing.B) { benchServe(b, true, 16) })
	b.Run("cold", func(b *testing.B) { benchServe(b, false, 16) })
}

func BenchmarkMISDetN400(b *testing.B) {
	g, err := graph.GNP(400, 0.03, 3)
	if err != nil {
		b.Fatal(err)
	}
	var phases int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := cclique.New(g.N())
		_, st, err := mis.SolveDet(nw, nw.MsgWords(), g, mis.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		phases = st.Phases
	}
	b.ReportMetric(float64(phases), "mis-phases")
}
