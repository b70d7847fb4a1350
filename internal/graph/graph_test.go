package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewGraphValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		adj     [][]int32
		wantErr bool
	}{
		{"empty", [][]int32{}, false},
		{"single", [][]int32{{}}, false},
		{"edge", [][]int32{{1}, {0}}, false},
		{"self-loop", [][]int32{{0}}, true},
		{"duplicate", [][]int32{{1, 1}, {0, 0}}, true},
		{"asymmetric", [][]int32{{1}, {}}, true},
		{"out-of-range", [][]int32{{5}, {0}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewGraph(tc.adj)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 || g.MaxDegree() != 2 {
		t.Fatalf("got n=%d m=%d Δ=%d", g.N(), g.M(), g.MaxDegree())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if _, err := FromEdges(2, [][2]int32{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g, err := GNP(80, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		u, v := int32(a)%int32(g.N()), int32(b)%int32(g.N())
		return g.HasEdge(u, v) == g.HasEdge(v, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerators(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		g, err := Cycle(10)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 10 || g.M() != 10 || g.MaxDegree() != 2 {
			t.Fatal("bad cycle")
		}
	})
	t.Run("complete", func(t *testing.T) {
		g, err := Complete(7)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != 21 || g.MaxDegree() != 6 {
			t.Fatal("bad K7")
		}
	})
	t.Run("bipartite", func(t *testing.T) {
		g, err := CompleteBipartite(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 7 || g.M() != 12 {
			t.Fatal("bad K3,4")
		}
	})
	t.Run("star", func(t *testing.T) {
		g, err := Star(9)
		if err != nil {
			t.Fatal(err)
		}
		if g.Degree(0) != 8 || g.M() != 8 {
			t.Fatal("bad star")
		}
	})
	t.Run("grid", func(t *testing.T) {
		g, err := Grid(4, 5)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 20 || g.M() != 4*4+5*3 {
			t.Fatalf("bad grid: n=%d m=%d", g.N(), g.M())
		}
	})
	t.Run("regular", func(t *testing.T) {
		for _, d := range []int{2, 5, 16, 40} {
			g, err := RandomRegular(100, d, uint64(d))
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				if g.Degree(int32(v)) != d {
					t.Fatalf("node %d degree %d, want %d", v, g.Degree(int32(v)), d)
				}
			}
		}
		if _, err := RandomRegular(5, 5, 1); err == nil {
			t.Fatal("d ≥ n accepted")
		}
		if _, err := RandomRegular(5, 3, 1); err == nil {
			t.Fatal("odd n·d accepted")
		}
	})
	t.Run("powerlaw", func(t *testing.T) {
		g, err := PowerLaw(200, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 200 {
			t.Fatal("bad power-law size")
		}
		if g.MaxDegree() < 6 {
			t.Fatalf("power-law hub degree suspiciously low: %d", g.MaxDegree())
		}
	})
	t.Run("caterpillar", func(t *testing.T) {
		g, err := Caterpillar(10, 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 40 || g.M() != 39 {
			t.Fatalf("caterpillar should be a tree: n=%d m=%d", g.N(), g.M())
		}
	})
	t.Run("gnp-determinism", func(t *testing.T) {
		a, err := GNP(100, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GNP(100, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.M() != b.M() {
			t.Fatal("same seed produced different graphs")
		}
		c, err := GNP(100, 0.05, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.M() == c.M() && a.Size() == c.Size() {
			t.Log("different seeds produced same edge count (possible, unlikely)")
		}
	})
	t.Run("gnp-extremes", func(t *testing.T) {
		g0, err := GNP(50, 0, 1)
		if err != nil || g0.M() != 0 {
			t.Fatalf("GNP(p=0): %v m=%d", err, g0.M())
		}
		g1, err := GNP(20, 1, 1)
		if err != nil || g1.M() != 190 {
			t.Fatalf("GNP(p=1): %v m=%d", err, g1.M())
		}
		if _, err := GNP(10, 1.5, 1); err == nil {
			t.Fatal("p > 1 accepted")
		}
	})
}

// TestGNPSparseCursor pins the sparse generator's incremental pair cursor
// to the row-major index mapping: GNP's sparse path must emit exactly the
// pairs a direct (O(n)-per-index) mapping of its skip sequence produces.
func TestGNPSparseCursor(t *testing.T) {
	pairFromIndex := func(idx int64, n int) (int32, int32) {
		u := int64(0)
		rowLen := int64(n - 1)
		for idx >= rowLen {
			idx -= rowLen
			u++
			rowLen--
		}
		return int32(u), int32(u + 1 + idx)
	}
	const n, p, seed = 200, 0.05, 9
	g, err := GNP(n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the same skip sequence through the reference mapping.
	rng := NewRand(seed)
	total := int64(n) * int64(n-1) / 2
	logq := math.Log1p(-p)
	pos := int64(-1)
	var want [][2]int32
	for {
		skip := int64(math.Floor(math.Log(1-rng.Float64()) / logq))
		pos += 1 + skip
		if pos >= total {
			break
		}
		u, v := pairFromIndex(pos, n)
		want = append(want, [2]int32{u, v})
	}
	ref, err := FromEdges(n, want)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != ref.M() {
		t.Fatalf("cursor emitted %d edges, reference %d", g.M(), ref.M())
	}
	for v := 0; v < n; v++ {
		got, exp := g.Neighbors(int32(v)), ref.Neighbors(int32(v))
		if !slices.Equal(got, exp) {
			t.Fatalf("node %d: %v != %v", v, got, exp)
		}
	}
}

func TestPalette(t *testing.T) {
	p, err := NewPalette([]Color{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(3) || p.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if _, err := NewPalette([]Color{1, 1}); err == nil {
		t.Fatal("duplicate color accepted")
	}
	if _, err := NewPalette([]Color{-1, 2}); err == nil {
		t.Fatal("negative color accepted")
	}
	q := p.Without([]Color{3})
	if len(q) != 2 || q.Contains(3) {
		t.Fatal("Without wrong")
	}
	if full := p.Without([]Color{0, 1, 2, 3, 4, 5, 6}); len(full) != 0 {
		t.Fatalf("Without did not remove all: %v", full)
	}
	if none := p.Without(nil); len(none) != 3 {
		t.Fatalf("Without(nil) dropped colors: %v", none)
	}
	if got := RangePalette(2, 5); len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Fatalf("RangePalette wrong: %v", got)
	}
}

func TestInstances(t *testing.T) {
	g, err := GNP(60, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := DeltaPlus1Instance(g)
	for v := 0; v < g.N(); v++ {
		if len(inst.Palettes[v]) != g.MaxDegree()+1 {
			t.Fatal("Δ+1 palette size wrong")
		}
	}
	li, err := ListInstance(g, 10000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if len(li.Palettes[v]) != g.MaxDegree()+1 {
			t.Fatal("list palette size wrong")
		}
	}
	di, err := DegPlus1Instance(g, 10000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if len(di.Palettes[v]) != g.Degree(int32(v))+1 {
			t.Fatal("deg+1 palette size wrong")
		}
	}
	if _, err := ListInstance(g, 2, 1); err == nil {
		t.Fatal("tiny universe accepted")
	}
	// p(v) ≤ d(v) must be rejected.
	gg, err := FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(gg, []Palette{{1}, {1}}); err == nil {
		t.Fatal("palette ≤ degree accepted")
	}
}

func TestColoring(t *testing.T) {
	c := NewColoring(3)
	if c.Complete() {
		t.Fatal("fresh coloring complete")
	}
	c[0], c[1], c[2] = 1, 2, 1
	if !c.Complete() {
		t.Fatal("filled coloring incomplete")
	}
}
