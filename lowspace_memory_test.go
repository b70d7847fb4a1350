package ccolor_test

import (
	"runtime"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// listLowSpaceInstance is the list-lowspace benchmark instance: the
// registry powerlaw graph at n = 2¹⁴ on graph seed 13, with registry list
// palettes drawn from seed 1.
func listLowSpaceInstance(t *testing.T) *graph.Instance {
	t.Helper()
	if testing.Short() {
		t.Skip("2¹⁴-node low-space solves skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("2¹⁴-node low-space solves skipped under -race")
	}
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Graph(1<<14, 13)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.InstanceFromGraph(g, 1<<14, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestLowSpaceWarmSolveAllocation: a warm low-space re-solve of the 2¹⁴
// list instance allocates under 0.5 MB, averaged over 10 solves after 2
// warm-ups. The session retains every slab, table and scratch list the
// recursion, the pools and the seed searches use, and its clusters own
// their round buffers; what a solve still allocates is mostly what it
// returns (the coloring, the report). The test runs at the process's own
// GOMAXPROCS with the collector on: neither changes what a warm solve has
// to rebuild.
func TestLowSpaceWarmSolveAllocation(t *testing.T) {
	inst := listLowSpaceInstance(t)
	sess, err := ccolor.NewSolverSession(ccolor.ModelLowSpace)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	opts := &ccolor.Options{Model: ccolor.ModelLowSpace}
	for i := 0; i < 2; i++ {
		if _, err := sess.Solve(inst, opts); err != nil {
			t.Fatal(err)
		}
	}
	const solves = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		if _, err := sess.Solve(inst, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / solves
	t.Logf("warm low-space solve: %.0f bytes/op, %.1f allocs/op",
		perOp, float64(after.Mallocs-before.Mallocs)/solves)
	if perOp >= 0.5*(1<<20) {
		t.Fatalf("warm low-space solve allocated %.2f MB per op, want < 0.5 MB", perOp/(1<<20))
	}
}

// TestLowSpaceWorkspaceWords: the low-space report counts its solver's
// retained workspace — nonzero, and below three times the instance at
// 2¹⁴ (it reads 1.7×). The palette slab copies the instance's palettes
// (n·(Δ+1) of its 3.8M words), and the MIS priority table adds
// n·BatchWidth words at the largest pool (about 0.9M here). The solve runs
// on a fresh session: the figure is retained capacity, so a facade session
// that an earlier, larger solve grew would read high.
func TestLowSpaceWorkspaceWords(t *testing.T) {
	inst := listLowSpaceInstance(t)
	sess, err := ccolor.NewSolverSession(ccolor.ModelLowSpace)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	rep, err := sess.Solve(inst, &ccolor.Options{Model: ccolor.ModelLowSpace})
	if err != nil {
		t.Fatal(err)
	}
	ws, iw := rep.Memory.WorkspaceWords, rep.Memory.InstanceWords
	t.Logf("WorkspaceWords=%d InstanceWords=%d (%.2f×)", ws, iw, float64(ws)/float64(iw))
	if ws == 0 || ws >= 3*iw {
		t.Fatalf("WorkspaceWords=%d, want nonzero and below 3×InstanceWords=%d", ws, 3*iw)
	}
}
