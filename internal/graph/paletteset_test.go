package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// refPaletteSet is the sorted-slice model PaletteSet replaced: a plain
// ascending index list. Every bitset operation is checked against it.
type refPaletteSet map[int]bool

func (r refPaletteSet) sorted() []int {
	out := make([]int, 0, len(r))
	for i := range r {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// checkAgainst verifies the bitset agrees with the reference on size and
// on ascending iteration order.
func checkAgainst(t *testing.T, s PaletteSet, r refPaletteSet) {
	t.Helper()
	want := r.sorted()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, reference %d", s.Len(), len(want))
	}
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d indices, reference %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("ForEach[%d] = %d, reference %d (order must be ascending)", k, got[k], want[k])
		}
	}
}

// TestPaletteSetRandomizedOpsMatchReference drives random op sequences
// (add, and a rare clear) through PaletteSet and the sorted-slice
// reference in lockstep, across domains that straddle word boundaries.
func TestPaletteSetRandomizedOpsMatchReference(t *testing.T) {
	for _, domain := range []int{1, 63, 64, 65, 200, 513} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(domain)))
			s := make(PaletteSet, PaletteSetWords(domain))
			r := refPaletteSet{}
			for op := 0; op < 300; op++ {
				if rng.Intn(40) == 0 {
					s.Clear()
					clear(r)
				} else {
					i := rng.Intn(domain)
					s.Add(i)
					r[i] = true
				}
				checkAgainst(t, s, r)
			}
		}
	}
}

// TestPaletteSetForEachEarlyStop pins that returning false stops iteration
// immediately.
func TestPaletteSetForEachEarlyStop(t *testing.T) {
	s := make(PaletteSet, PaletteSetWords(200))
	for _, i := range []int{3, 64, 65, 130, 199} {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return len(got) < 3
	})
	if len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 65 {
		t.Fatalf("early-stopped ForEach visited %v, want [3 64 65]", got)
	}
}

// FuzzPaletteSetRoundTrip inserts an arbitrary byte-derived index multiset,
// checks ascending iteration reproduces the sorted unique indices, then
// clears the set and re-checks — the add/iterate round-trip the solver's
// union and mask builds rely on.
func FuzzPaletteSetRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 63, 64, 255})
	f.Add([]byte{7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = 256
		s := make(PaletteSet, PaletteSetWords(domain))
		r := refPaletteSet{}
		for _, b := range data {
			s.Add(int(b))
			r[int(b)] = true
		}
		checkAgainst(t, s, r)
		s.Clear()
		clear(r)
		checkAgainst(t, s, r)
	})
}
