package core

import (
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/graph"
)

// BenchmarkPartition times one root Partition call of the dense-cclique
// benchmark's shape, G(2048, 1/4) with Δ+1 palettes under the default
// parameters: the seed search (batch tables, Definition 3.1 scoring and
// its aggregation rounds), the winner's classification, the announce
// round and the children's demotion, restriction and set-up. The
// workspace and the network are warm; the solver's set-up, which re-packs
// the palettes, and the in-call degree count the wave does before every
// Partition run outside the timer.
func BenchmarkPartition(b *testing.B) {
	g, err := graph.GNP(2048, 0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	nw := cclique.New(g.N())
	defer nw.Release()
	ws := &Workspace{}
	defer ws.Release()
	partition := func() {
		b.StopTimer()
		nw.Reset(g.N())
		s, err := newSolver(nw, nw.MsgWords(), inst, DefaultParams(), ws)
		if err != nil {
			b.Fatal(err)
		}
		root := s.runnable[0]
		s.runnable = nil
		s.callDegrees(root)
		b.StartTimer()
		if err := s.partition(root); err != nil {
			b.Fatal(err)
		}
	}
	partition() // warm the workspace, the pools and the round buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition()
	}
}
