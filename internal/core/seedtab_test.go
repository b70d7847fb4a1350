package core

import (
	"testing"

	"ccolor/internal/derand"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

func TestSeedTableLaneWidth(t *testing.T) {
	for _, c := range []struct {
		bins int
		bits uint
	}{{2, 8}, {7, 8}, {256, 8}, {257, 16}, {1 << 16, 16}, {1<<16 + 1, 32}} {
		tab := newSeedTable(c.bins)
		if tab.bits != c.bits || tab.lanes != 64/int(c.bits) {
			t.Errorf("B=%d: %d lanes of %d bits, want %d-bit lanes", c.bins, tab.lanes, tab.bits, c.bits)
		}
	}
}

// TestSeedTableSameBinCounts checks the branch-free lane counts against a
// direct count for every lane width and across the lane-counter drain: the
// hub below has over 255 same-bin members, more than one 8-bit lane holds.
func TestSeedTableSameBinCounts(t *testing.T) {
	const n, id = 1200, 7
	var edges [][2]int32
	for v := int32(1); v < n; v++ {
		edges = append(edges, [2]int32{0, v})
		if v+1 < n {
			edges = append(edges, [2]int32{v, v + 1})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Members of call id, colored nodes (−1) and members of another call.
	callOf := make([]int32, n)
	for v := range callOf {
		switch v % 5 {
		case 0:
			callOf[v] = -1
		case 1:
			callOf[v] = id + 2
		default:
			callOf[v] = id
		}
	}
	const perCand = 3 // counts land every third slot; the others stay 0
	for _, bins := range []int{2, 3, 300, 70000} {
		fam, err := hashing.NewFamily(8, n, int64(bins), 24)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 3, 8, 16} {
			cands := make([]derand.Pair, width)
			for i := range cands {
				cands[i] = derand.Pair{H1: fam.Member(uint64(1000*bins + i)), Index: uint64(i)}
			}
			tab := newSeedTable(bins)
			var slab []uint64
			tab.reset(&slab, n, width)
			for v := int32(0); v < n; v++ {
				tab.fillRow(v, cands)
			}
			hubMax := 0
			for v := int32(0); v < n; v++ {
				out := make([]int64, width*perCand)
				tab.addSameBin(v, g.Neighbors(v), callOf, id, out, perCand)
				for i, p := range cands {
					bin := p.H1.Eval(int64(v))
					if got := tab.bin(v, i); int64(got) != bin {
						t.Fatalf("B=%d width=%d: bin(%d, %d) = %d, want %d", bins, width, v, i, got, bin)
					}
					want := 0
					for _, u := range g.Neighbors(v) {
						if callOf[u] == id && p.H1.Eval(int64(u)) == bin {
							want++
						}
					}
					if v == 0 {
						hubMax = max(hubMax, want)
					}
					if out[i*perCand] != int64(want) {
						t.Fatalf("B=%d width=%d: node %d candidate %d counts %d same-bin members, want %d",
							bins, width, v, i, out[i*perCand], want)
					}
					for j := 1; j < perCand; j++ {
						if out[i*perCand+j] != 0 {
							t.Fatalf("B=%d width=%d: node %d wrote slot %d of candidate %d", bins, width, v, j, i)
						}
					}
				}
			}
			if bins == 2 && hubMax <= 255 {
				t.Fatalf("width=%d: hub has only %d same-bin members; the drain is not exercised", width, hubMax)
			}
		}
	}
}
