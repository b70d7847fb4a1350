package graph_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// mapLists is the list generator the slab drawer replaced, kept as its
// oracle: a map per node rejects repeated draws, and NewPalette copies and
// sorts each list. rowLen(v) is the size of node v's list.
func mapLists(t testing.TB, g *graph.Graph, universe int64, seed uint64, rowLen func(v int) int) []graph.Palette {
	t.Helper()
	rng := graph.NewRand(seed)
	pals := make([]graph.Palette, g.N())
	for v := range pals {
		set := map[graph.Color]struct{}{}
		var list []graph.Color
		for len(list) < rowLen(v) {
			c := graph.Color(rng.Intn(universe))
			if _, dup := set[c]; dup {
				continue
			}
			set[c] = struct{}{}
			list = append(list, c)
		}
		p, err := graph.NewPalette(list)
		if err != nil {
			t.Fatal(err)
		}
		pals[v] = p
	}
	return pals
}

// checkAgainstOracle draws both list instances of g and compares them, list
// for list, with mapLists.
func checkAgainstOracle(t *testing.T, g *graph.Graph, universe int64, seed uint64) {
	t.Helper()
	delta := g.MaxDegree()
	list, err := graph.ListInstance(g, universe, seed)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := graph.DegPlus1Instance(g, universe, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		inst   *graph.Instance
		rowLen func(v int) int
	}{
		{"ListInstance", list, func(int) int { return delta + 1 }},
		{"DegPlus1Instance", deg, func(v int) int { return g.Degree(int32(v)) + 1 }},
	} {
		want := mapLists(t, g, universe, seed, c.rowLen)
		for v, p := range c.inst.Palettes {
			if !slices.Equal(p, want[v]) {
				t.Fatalf("%s node %d: %v, oracle %v", c.name, v, p, want[v])
			}
		}
		if err := c.inst.CheckPalettes(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestListsMatchMapOracle pins the slab drawer to the map-and-sort
// generator on every registry family with list palettes, at the
// registry's universe 4n and seed convention.
func TestListsMatchMapOracle(t *testing.T) {
	for _, name := range []string{"powerlaw", "ring-of-cliques", "rmat"} {
		spec, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{16, 257, 4096} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed), func(t *testing.T) {
					g, err := spec.Graph(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, g, scenario.Universe(n), seed+1)
				})
			}
		}
	}
}

// TestListUniverses draws from the universes the drawer must survive: Δ+1,
// where every Δ+1 row is the whole universe; n²; and 2⁴⁰, far beyond
// anything the drawer could afford to index.
func TestListUniverses(t *testing.T) {
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Graph(4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N())
	for _, universe := range []int64{int64(g.MaxDegree() + 1), n * n, 1 << 40} {
		t.Run(fmt.Sprint(universe), func(t *testing.T) {
			checkAgainstOracle(t, g, universe, 9)
		})
	}
	full, err := graph.ListInstance(g, int64(g.MaxDegree()+1), 9)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RangePalette(0, graph.Color(g.MaxDegree())); !slices.Equal(full.Palettes[0], want) {
		t.Fatalf("universe Δ+1: node 0 has %v, want the whole universe", full.Palettes[0])
	}
}

// TestListInstanceAllocations: the palettes of a 2¹⁴-node powerlaw
// instance are views into one slab, so drawing them takes a constant
// number of allocations rather than one per node; at universe 2⁴⁰ the
// bytes allocated stay proportional to the palette mass.
func TestListInstanceAllocations(t *testing.T) {
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Graph(1<<14, 13)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := graph.ListInstance(g, scenario.Universe(g.N()), 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("ListInstance at n=%d: %.0f allocations, want a constant ≤ 8", g.N(), allocs)
	}

	g, err = spec.Graph(4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst, err := graph.ListInstance(g, 1<<40, 3)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// The slab (8 bytes a color) and the palette headers (24 bytes a
	// node) are the instance; row-sized scratch is the rest.
	mass := int64(inst.PaletteMass())
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 2*(8*mass+24*int64(g.N())); got > limit {
		t.Fatalf("universe 2⁴⁰: allocated %d bytes for a palette mass of %d colors (limit %d)", got, mass, limit)
	}
}

// BenchmarkListInstance draws the registry's list palettes (universe 4n)
// on powerlaw graphs, whose rows of Δ+1 colors are long and go through
// the radix sort, and on ring-of-cliques graphs, whose 9-color rows are
// sorted by comparison.
func BenchmarkListInstance(b *testing.B) {
	for _, name := range []string{"powerlaw", "ring-of-cliques"} {
		spec, err := scenario.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, logN := range []int{14, 16} {
			n := 1 << logN
			b.Run(fmt.Sprintf("%s/n=2^%d", name, logN), func(b *testing.B) {
				g, err := spec.Graph(n, 13)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := graph.ListInstance(g, scenario.Universe(n), uint64(i)+2); err != nil {
						b.Fatal(err)
					}
				}
				colors := int64(b.N) * int64(n) * int64(g.MaxDegree()+1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(colors), "ns/color")
			})
		}
	}
}
