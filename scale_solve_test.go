package ccolor_test

// The top of the large-instance tier: not just generating and encoding a
// million-node instance (scale_test.go in internal/scenario pins that) but
// actually solving it. One congested-clique (Δ+1)-solve of the 2²⁰-node
// gnp instance, checked by the independent verify oracle and audited
// against the solve's own MemoryBudget — the tier's claim is that the hot
// path stays near-linear in instance words, so the workspace, the
// per-round delivery volume and the delivery scratch must all stay within
// small constant multiples of the encoded input.

import (
	"runtime"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

func TestScaleTierMillionNodeSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("2²⁰-node solve skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("2²⁰-node solve skipped under -race (runs minutes instead of seconds)")
	}
	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Instance(scenario.ScaleSmokeNodes, 11)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelCClique})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coloring.Complete() {
		t.Fatal("incomplete coloring at n=2^20")
	}

	a := verify.CrossModel(inst, []verify.ModelColoring{
		{Model: string(ccolor.ModelCClique), Coloring: rep.Coloring},
	})
	if !a.Clean() {
		t.Errorf("verifier failures at n=2^20:\n%s", a)
	}
	if verify.InstanceFingerprint(inst) != a.InstanceFP {
		t.Error("solving mutated the instance")
	}

	// The memory budget is the auditable contract: the instance charge must
	// be the canonical encoding exactly, and the resident workspace and the
	// transient per-round delivery volume must both stay within small
	// constant multiples of it. The factors have headroom over measured
	// reality (workspace ≈ 1.7× with the collect gather's slabs and tables
	// counted, peak round ≈ 0.7× at this size); they exist
	// to catch a superlinear slab or an accidentally quadratic round, not
	// constant drift.
	iw := graph.InstanceWordCount(inst)
	t.Logf("n=2^20 gnp: rounds=%d colors=%d instance=%d words workspace=%d peak-round=%d delivery-scratch=%d",
		rep.Rounds, rep.ColorsUsed, iw, rep.Memory.WorkspaceWords, rep.Memory.PeakRoundWords,
		rep.Memory.DeliveryScratchWords)
	if rep.Memory.InstanceWords != iw {
		t.Errorf("InstanceWords=%d, canonical encoding is %d", rep.Memory.InstanceWords, iw)
	}
	if rep.Memory.WorkspaceWords == 0 || rep.Memory.WorkspaceWords > 4*iw {
		t.Errorf("workspace %d words outside (0, 4×instance=%d]",
			rep.Memory.WorkspaceWords, 4*iw)
	}
	if rep.Memory.PeakRoundWords == 0 || rep.Memory.PeakRoundWords > 2*iw {
		t.Errorf("peak round %d words outside (0, 2×instance=%d]",
			rep.Memory.PeakRoundWords, 2*iw)
	}
	// No round builds inboxes, so delivery scratch is one set of
	// destination rows (3 words per node) per sender block, plus a
	// combining round's accumulators, and the pool runs one block per
	// GOMAXPROCS. Measured on a 2-vCPU box: 6,291,504 words (0.17× the
	// instance) at GOMAXPROCS 2.
	scratchBound := 4 * int64(runtime.GOMAXPROCS(0)) * int64(inst.G.N())
	if rep.Memory.DeliveryScratchWords == 0 || rep.Memory.DeliveryScratchWords > scratchBound {
		t.Errorf("delivery scratch %d words outside (0, 4·GOMAXPROCS·n = %d]",
			rep.Memory.DeliveryScratchWords, scratchBound)
	}
}
