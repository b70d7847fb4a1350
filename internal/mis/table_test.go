package mis

import (
	"fmt"
	"testing"

	"ccolor/internal/derand"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// referenceJoinsUnder is the per-(node, candidate) join rule the priority
// table replaced: v joins iff it is live and its (priority, id) is below
// every live neighbour's, clique siblings and conflicts alike.
func referenceJoinsUnder[T topology](t T, live []bool, v int32, h hashing.Hash) bool {
	if !live[v] {
		return false
	}
	pv := h.Eval(int64(v))
	lo, hi := t.CliqueBlock(v)
	for u := lo; u < hi; u++ {
		if u == v || !live[u] {
			continue
		}
		pu := h.Eval(int64(u))
		if pu < pv || (pu == pv && u < v) {
			return false
		}
	}
	for _, u := range t.Conflicts(v) {
		if !live[u] {
			continue
		}
		pu := h.Eval(int64(u))
		if pu < pv || (pu == pv && u < v) {
			return false
		}
	}
	return true
}

// referenceLiveDeg is the per-node live degree the phase pass replaced.
func referenceLiveDeg[T topology](t T, live []bool, v int32) int64 {
	d := int64(0)
	lo, hi := t.CliqueBlock(v)
	for u := lo; u < hi; u++ {
		if u != v && live[u] {
			d++
		}
	}
	for _, u := range t.Conflicts(v) {
		if live[u] {
			d++
		}
	}
	return d
}

// checkTable tabulates one batch of width candidates and requires, for
// every candidate and node, the reference's join decision and cost
// −(d_live+1); then that a one-candidate batch of each candidate — the
// path a winner outside the tabulated batch takes — reproduces its column.
func checkTable[T topology](t *testing.T, top T, live []bool, fam hashing.Family, width int) {
	t.Helper()
	n := top.N()
	cands := make([]derand.Pair, width)
	for i := range cands {
		cands[i] = derand.Pair{H1: fam.Member(uint64(1000 + i)), Index: uint64(50 + i)}
	}
	deg := make([]int64, n)
	liveDegrees(top, live, deg)
	var tb table
	tabulate(top, live, &tb, cands)
	joiners := 0
	for i, c := range cands {
		for v := 0; v < n; v++ {
			want := referenceJoinsUnder(top, live, int32(v), c.H1)
			if got := tb.joined(v, i); got != want {
				t.Fatalf("candidate %d node %d: table joins=%v, reference %v", i, v, got, want)
			}
			if !want {
				continue
			}
			joiners++
			if got, want := -(deg[v] + 1), -(referenceLiveDeg(top, live, int32(v)) + 1); got != want {
				t.Fatalf("candidate %d node %d: cost %d, reference %d", i, v, got, want)
			}
		}
	}
	if joiners == 0 && anyLive(live) {
		t.Fatal("no candidate has a joiner")
	}
	var one table
	for i, c := range cands {
		tabulate(top, live, &one, []derand.Pair{c})
		for v := 0; v < n; v++ {
			if one.joined(v, 0) != tb.joined(v, i) {
				t.Fatalf("candidate %d node %d: one-candidate batch disagrees with column", i, v)
			}
		}
	}
}

func anyLive(live []bool) bool {
	for _, ok := range live {
		if ok {
			return true
		}
	}
	return false
}

// someDead kills every node whose index is ≡ 1 or 2 mod 5: a later phase's
// live set, with dead block members and dead conflicts.
func someDead(n int) []bool {
	live := make([]bool, n)
	for v := range live {
		live[v] = v%5 != 1 && v%5 != 2
	}
	return live
}

func allLive(n int) []bool {
	live := make([]bool, n)
	for v := range live {
		live[v] = true
	}
	return live
}

// TestPriorityTableMatchesReference holds tabulate and liveDegrees to the
// per-pair rule they replaced: plain graphs with every node live and with
// an active mask, the implicit-clique reduction with a full and a thinned
// live set, batch widths of one word and of two (70 candidates), and a
// family whose range is 3, so most comparisons are priority ties that the
// node id must break.
func TestPriorityTableMatchesReference(t *testing.T) {
	g, err := graph.GNP(90, 0.12, 4)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := graph.GNP(40, 0.15, 8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := graph.DegPlus1Instance(gi, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	red := BuildReduction(inst)
	fam := func(n int, rng int64, extra uint) hashing.Family {
		f, err := hashing.NewFamily(8, int64(n), rng, extra)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, width := range []int{8, 70} {
		for _, tie := range []bool{false, true} {
			name := func(top string) string { return fmt.Sprintf("%s/width%d/ties=%v", top, width, tie) }
			pick := func(n int) hashing.Family {
				if tie {
					return fam(n, 3, 0)
				}
				return fam(n, int64(n)*int64(n)*8, 6)
			}
			t.Run(name("graph"), func(t *testing.T) {
				checkTable(t, graphTopo{g}, allLive(g.N()), pick(g.N()), width)
			})
			t.Run(name("graph-active"), func(t *testing.T) {
				checkTable(t, graphTopo{g}, someDead(g.N()), pick(g.N()), width)
			})
			t.Run(name("reduction"), func(t *testing.T) {
				checkTable(t, red, allLive(red.N()), pick(red.N()), width)
			})
			t.Run(name("reduction-thinned"), func(t *testing.T) {
				checkTable(t, red, someDead(red.N()), pick(red.N()), width)
			})
		}
	}
}
