package mis

import (
	"math"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
	"ccolor/internal/mpc"
	"ccolor/internal/scenario"
)

// poolShape builds the reduction the low-space solver's largest MIS pool
// has on the list-lowspace benchmark instance: the registry powerlaw graph
// at n = 2¹⁴ (graph seed 13) with registry list palettes (seed 1), every
// palette truncated to degree+1 colours, as colorPool does. It returns the
// plain graph too.
func poolShape(b *testing.B) (*graph.Graph, *Reduction) {
	b.Helper()
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 14
	g, err := spec.Graph(n, 13)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := spec.InstanceFromGraph(g, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	adj := make([][]int32, n)
	pals := make([]graph.Palette, n)
	for v := range adj {
		adj[v] = g.Neighbors(int32(v))
		pals[v] = inst.Palettes[v][:len(adj[v])+1]
	}
	var red Reduction
	red.Build(adj, pals)
	return g, &red
}

// poolCluster hosts the reduction on low-space machines the way colorPool
// does: 𝔰 = max(⌈n^½⌉, 4τ+64) words with τ = ⌈n^0.49⌉, reduction node x
// weighing deg(x)+2 words, machines filled first-fit.
func poolCluster(b *testing.B, n int, red *Reduction) *mpc.Cluster {
	b.Helper()
	space := int64(math.Ceil(math.Sqrt(float64(n))))
	space = max(space, int64(4*math.Ceil(math.Pow(float64(n), 0.49))+64))
	assign := make([]int, red.N())
	m, used := 0, int64(0)
	for x := range assign {
		w := int64(red.Degree(int32(x)) + 2)
		if used+w > space {
			m++
			used = 0
		}
		assign[x] = m
		used += w
	}
	c, err := mpc.New(assign, m+1, space)
	if err != nil {
		b.Fatal(err)
	}
	for x := range assign {
		if err := c.AdjustResident(x, int64(red.Degree(int32(x))+2)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkMISSelect times one phase's seed search — tabulating a batch of
// eight candidates, the aggregation, the argmin and the winner broadcast —
// on the first phase of solveDet, with every node live: over the
// reduction of the list-lowspace benchmark's largest pool shape on its
// low-space cluster (about 10⁵ reduction nodes in clique blocks), and over
// the plain 2¹⁴-node powerlaw graph on a congested clique (singleton
// blocks, every edge a conflict).
func BenchmarkMISSelect(b *testing.B) {
	g, red := poolShape(b)
	b.Run("reduction16k", func(b *testing.B) {
		c := poolCluster(b, g.N(), red)
		defer c.Release()
		benchSelect(b, c, 8, red) // lowspace's pairWords
	})
	b.Run("graph16k", func(b *testing.B) {
		nw := cclique.New(g.N())
		benchSelect(b, nw, nw.MsgWords(), graphTopo{g})
	})
}

func benchSelect[T topology](b *testing.B, f fabric.Fabric, pairWords int, t T) {
	n := t.N()
	p := DefaultParams()
	var ws Workspace
	ws.live = graph.Grow(ws.live, n)
	ws.deg = graph.Grow(ws.deg, n)
	for v := range ws.live {
		ws.live[v] = true
	}
	prio, err := hashing.NewFamily(p.Independence, int64(n), int64(n)*int64(n)*8, 6)
	if err != nil {
		b.Fatal(err)
	}
	sel, local := phaseSelector(t, ws.live, &ws, prio, p)
	liveDegrees(t, ws.live, ws.deg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Salt = uint64(i)
		if _, err := sel.SelectMin(f, pairWords, 1, local, derand.Total); err != nil {
			b.Fatal(err)
		}
	}
}
