package ccolor_test

// The parallel-delivery determinism matrix: one solve per point of
// GOMAXPROCS {1, 4} × worker-pool width {1, 2, 8}, for both the
// congested-clique and linear-MPC backends, with the one-block cutoff
// lowered to 1 so every round splits into one sender block per pool worker
// at test sizes. Width 1 delivers every round as one block, the serial case
// of the same code; every other point must reproduce its coloring
// fingerprint and ledger byte-for-byte.
// This is the solve-level contract on top of the inbox-level tests in
// internal/cclique and internal/mpc: no scheduling decision — Go's or the
// pool's — may leak into results.

import (
	"fmt"
	"runtime"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/mpc"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

// matrixRun is one solve's observable outcome: the coloring fingerprint
// plus every ledger statistic a golden pins.
type matrixRun struct {
	coloringFP uint64
	rounds     int
	words      int64
	sendLoad   int64
	recvLoad   int64
	peakRound  int64
}

func (r matrixRun) String() string {
	return fmt.Sprintf("fp=%016x rounds=%d words=%d send=%d recv=%d peak=%d",
		r.coloringFP, r.rounds, r.words, r.sendLoad, r.recvLoad, r.peakRound)
}

// solveMatrixPoint runs one (Δ+1)-list solve on a fresh fabric built by
// mk and distills it into a matrixRun.
func solveMatrixPoint(t *testing.T, mk func() (fabric.Fabric, int, func()), inst *graph.Instance) matrixRun {
	t.Helper()
	f, pairWords, release := mk()
	defer release()
	var ws core.Workspace
	defer ws.Release()
	col, _, err := core.SolveWS(f, pairWords, inst, core.DefaultParams(), &ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ListColoring(inst, col); err != nil {
		t.Fatal(err)
	}
	led := f.Ledger()
	return matrixRun{
		coloringFP: verify.ColoringFingerprint(col),
		rounds:     led.Rounds(),
		words:      led.WordsMoved(),
		sendLoad:   led.MaxSendLoad(),
		recvLoad:   led.MaxRecvLoad(),
		peakRound:  led.PeakRoundWords(),
	}
}

func TestSolveDeterminismMatrix(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()

	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 96, 1
	inst, err := spec.Instance(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	weight := func(v int) int64 { return int64(inst.G.Degree(int32(v)) + 2) }

	backends := []struct {
		name string
		mk   func(width int) func() (fabric.Fabric, int, func())
	}{
		{"cclique", func(width int) func() (fabric.Fabric, int, func()) {
			return func() (fabric.Fabric, int, func()) {
				nw := cclique.New(inst.G.N(), cclique.WithParallelism(width))
				return nw, nw.MsgWords(), nw.Release
			}
		}},
		{"mpc", func(width int) func() (fabric.Fabric, int, func()) {
			return func() (fabric.Fabric, int, func()) {
				cl, err := mpc.NewLinear(inst.G.N(), weight, 16, mpc.WithParallelism(width))
				if err != nil {
					t.Fatal(err)
				}
				return cl, 8, cl.Release
			}
		}},
	}

	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			var ref matrixRun
			haveRef := false
			for _, procs := range []int{1, 4} {
				for _, width := range []int{1, 2, 8} {
					prev := runtime.GOMAXPROCS(procs)
					run := solveMatrixPoint(t, bk.mk(width), inst)
					runtime.GOMAXPROCS(prev)
					label := fmt.Sprintf("procs=%d width=%d", procs, width)
					if !haveRef {
						ref, haveRef = run, true
						t.Logf("%s (reference): %s", label, run)
						continue
					}
					if run != ref {
						t.Errorf("%s diverges from the one-block reference:\n  got  %s\n  want %s",
							label, run, ref)
					}
				}
			}
		})
	}
}
