// This file is the solve-path benchmark harness: cold and warm facade
// solves on every model, the set problems, the large-instance scaling
// curve, the multicore delivery sweep and traced solves, each reporting its
// domain metric (model rounds, set size, trace spans) alongside
// wall-clock and allocations. CI's bench guard gates them against
// BENCH_solve.json. Run them with:
//
//	go test -run '^$' -bench BenchmarkSolve -benchmem .
//
// The reproduction experiments' tables come from
// go run ./cmd/ccbench -e all.
// Absolute wall-clock is simulation speed, not the paper's testbed; the
// claims live in the reported custom metrics.
package ccolor_test

import (
	"fmt"
	"runtime"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

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
	// The powerlaw pair scales the list-palette discipline: a 4n color
	// domain that each packed palette meets only in its own few nonzero
	// words, and per-color counting through h₂ instead of bin masks. Its
	// exponent is gated separately in CI: the gnp pair cannot see a
	// superlinear slide in the palette scan paths.
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
