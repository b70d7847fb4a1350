package core

import (
	"math/rand"
	"slices"
	"testing"

	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// newPalSolver builds a bare solver with one node in each representation
// for palette-state unit tests.
func newPalSolver(t *testing.T, compact bool, k graph.Color) *solver {
	t.Helper()
	return newPalSolverMulti(t, compact, []graph.Palette{graph.RangePalette(1, k)})
}

// newPalSolverMulti is newPalSolver over arbitrary per-node palettes (the
// packed representation needs a workspace-built domain behind it).
func newPalSolverMulti(t *testing.T, compact bool, pals []graph.Palette) *solver {
	t.Helper()
	ws := &Workspace{}
	ws.ensure(len(pals))
	s := &solver{pal: ws.pal[:len(pals)], wsp: ws, dom: &ws.dom}
	if compact {
		for v, p := range pals {
			hi, err := rangeTop(p)
			if err != nil {
				t.Fatal(err)
			}
			s.pal[v] = palState{compact: true, rangeHi: hi, sizeCache: -1}
		}
	} else {
		s.initPackedPalettes(pals)
	}
	return s
}

func testHash(t *testing.T, rng int64) hashing.Hash {
	t.Helper()
	fam, err := hashing.NewFamily(4, 1<<20, rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	return fam.Member(3)
}

func TestPaletteModesAgree(t *testing.T) {
	const k = 40
	h := testHash(t, 3)
	for _, op := range []struct {
		name  string
		apply func(s *solver)
	}{
		{"fresh", func(s *solver) {}},
		{"restrict", func(s *solver) { s.palRestrict(0, h, 1) }},
		{"remove", func(s *solver) { s.palRemove(0, 7); s.palRemove(0, 8) }},
		{"restrict+remove", func(s *solver) {
			s.palRestrict(0, h, 0)
			s.palRemove(0, 5)
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			mat := newPalSolver(t, false, k)
			cmp := newPalSolver(t, true, k)
			op.apply(mat)
			op.apply(cmp)
			if a, b := mat.palSize(0), cmp.palSize(0); a != b {
				t.Fatalf("sizes differ: materialized %d vs compact %d", a, b)
			}
			var av, bv []graph.Color
			mat.palForEach(0, func(c graph.Color) bool { av = append(av, c); return true })
			cmp.palForEach(0, func(c graph.Color) bool { bv = append(bv, c); return true })
			if len(av) != len(bv) {
				t.Fatalf("iteration lengths differ: %d vs %d", len(av), len(bv))
			}
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("entry %d differs: %d vs %d", i, av[i], bv[i])
				}
			}
			for _, bin := range []int64{0, 1} {
				if a, b := mat.palCountBin(0, h, bin), cmp.palCountBin(0, h, bin); a != b {
					t.Fatalf("palCountBin(bin=%d) differs: %d vs %d", bin, a, b)
				}
			}
			if a, b := mat.palFirstKInto(0, 5), cmp.palFirstKInto(0, 5); len(a) != len(b) {
				t.Fatalf("palFirstKInto lengths differ")
			}
		})
	}
}

func TestPalFirstKTruncates(t *testing.T) {
	s := newPalSolver(t, false, 10)
	got := s.palFirstKInto(0, 3)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("palFirstKInto wrong: %v", got)
	}
	if got := s.palFirstKInto(0, 99); len(got) != 10 {
		t.Fatalf("palFirstKInto beyond size wrong: %d", len(got))
	}
}

func TestPalWordsAccounting(t *testing.T) {
	const k = 100
	mat := newPalSolver(t, false, k)
	cmp := newPalSolver(t, true, k)
	if mat.palWords(0) != k {
		t.Fatalf("materialized words = %d, want %d", mat.palWords(0), k)
	}
	// Compact: O(1) before any updates.
	if w := cmp.palWords(0); w != 1 {
		t.Fatalf("fresh compact words = %d, want 1", w)
	}
	h := testHash(t, 2)
	cmp.palRestrict(0, h, 0)
	cmp.palRemove(0, 9)
	w := cmp.palWords(0)
	// 1 (range) + (coeffs+1) for one chain entry + 1 used color.
	if want := int64(1 + 4 + 1 + 1); w != want {
		t.Fatalf("compact words = %d, want %d", w, want)
	}
}

// TestCompactSizeCacheCoherence drives random restrict/remove interleavings
// through a compact-mode palette and checks after every mutation that the
// incrementally maintained sizeCache agrees with a full palForEach count.
// palRemove decrements the cache in place (checking presence against the
// restriction chain) instead of invalidating it, so a stale decrement —
// double-removing, removing a chain-filtered color, removing out of range —
// would surface here as a count drift.
func TestCompactSizeCacheCoherence(t *testing.T) {
	const k = 60
	s := newPalSolver(t, true, k)
	// Deterministic op mix: removes (some duplicated, some out of range,
	// some of chain-filtered colors) interleaved with chain restrictions.
	hashes := []hashing.Hash{testHash(t, 2), testHash(t, 3), testHash(t, 5)}
	next := uint64(12345)
	rnd := func(m uint64) uint64 {
		next = next*6364136223846793005 + 1442695040888963407
		return (next >> 33) % m
	}
	verify := func(step string) {
		t.Helper()
		got := s.palSize(0) // materializes the cache if dirty
		n := 0
		s.palForEach(0, func(graph.Color) bool { n++; return true })
		if got != n {
			t.Fatalf("%s: palSize = %d but palForEach counts %d", step, got, n)
		}
		if again := s.palSize(0); again != n {
			t.Fatalf("%s: second palSize = %d, want %d (cache went stale)", step, again, n)
		}
	}
	verify("fresh")
	for op := 0; op < 200; op++ {
		switch rnd(10) {
		case 0: // restrict by a chain hash (invalidates, next palSize rebuilds)
			h := hashes[rnd(uint64(len(hashes)))]
			s.palRestrict(0, h, int64(rnd(4)))
		case 1: // out-of-range removes must not decrement
			s.palRemove(0, graph.Color(k+1+int64(rnd(20))))
		default: // in-range removes, duplicates included
			s.palRemove(0, graph.Color(1+rnd(k)))
		}
		verify("op")
	}
	if s.palSize(0) != 0 {
		// Not required to reach zero; just pin that the survivors match a
		// direct chain evaluation.
		n := 0
		for c := graph.Color(1); c <= k; c++ {
			if s.pal[0].chainAdmits(c) {
				n++
			}
		}
		if n != s.palSize(0) {
			t.Fatalf("final size %d but chainAdmits counts %d", s.palSize(0), n)
		}
	}
}

func TestRangeTop(t *testing.T) {
	if _, err := rangeTop(graph.Palette{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := rangeTop(graph.Palette{2, 3}); err == nil {
		t.Fatal("non-1-based palette accepted")
	}
	if _, err := rangeTop(graph.Palette{1, 3}); err == nil {
		t.Fatal("gapped palette accepted")
	}
	if hi, err := rangeTop(nil); err != nil || hi != 0 {
		t.Fatal("empty palette should be range {1..0}")
	}
}

// TestPackedPaletteOpsMatchSortedOracle drives interleaved restrictions and
// removals through the packed sparse bitsets and through plain sorted
// slices in lockstep. The inputs cover both packing paths: overlapping Δ+1
// palettes (one shared slice, packed once and copied, plus equal copies
// packed on their own) and near-disjoint list palettes over domains of
// ≥ 2¹⁴ colors, one of them past the domain's 2²² bitmap bound. Removals
// include whole words (emptying them) and colors the palette does not
// hold; restrictions after them walk the zero words removals leave behind.
func TestPackedPaletteOpsMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fam, err := hashing.NewFamily(4, 1<<30, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	listPals := func(n, k int, universe int64) []graph.Palette {
		pals := make([]graph.Palette, n)
		for v := range pals {
			seen := make(map[graph.Color]bool, k)
			for len(pals[v]) < k {
				if c := graph.Color(rng.Int63n(universe)); !seen[c] {
					seen[c] = true
					pals[v] = append(pals[v], c)
				}
			}
			slices.Sort(pals[v])
		}
		return pals
	}
	shared := graph.RangePalette(1, 150)
	overlap := make([]graph.Palette, 40)
	for v := range overlap {
		overlap[v] = shared
		if v%7 == 3 {
			overlap[v] = slices.Clone(shared)
		}
	}
	for _, tc := range []struct {
		name     string
		pals     []graph.Palette
		minDom   int
		fallback bool
	}{
		{"delta+1", overlap, 150, false},
		{"list-2^20", listPals(200, 100, 1<<20), 1 << 14, false},
		{"list-2^24", listPals(200, 100, 1<<24), 1 << 14, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newPalSolverMulti(t, false, tc.pals)
			dom := s.dom.colors
			if len(dom) < tc.minDom || (s.dom.bitmap == nil) != tc.fallback {
				t.Fatalf("domain of %d colors (bitmap %v), want ≥ %d (bitmap %v)",
					len(dom), s.dom.bitmap != nil, tc.minDom, !tc.fallback)
			}
			binMask := func(h hashing.Hash, bin int64) graph.PaletteSet {
				mask := make(graph.PaletteSet, s.dom.words)
				for i, c := range dom {
					if h.Eval(c) == bin {
						mask.Add(i)
					}
				}
				return mask
			}
			keep := func(cs []graph.Color, h hashing.Hash, bin int64) []graph.Color {
				return slices.DeleteFunc(cs, func(c graph.Color) bool { return h.Eval(c) != bin })
			}
			probe := fam.Member(99)
			probeMasks := []graph.PaletteSet{binMask(probe, 0), binMask(probe, 1)}
			oracle := make([][]graph.Color, len(tc.pals))
			for v, p := range tc.pals {
				oracle[v] = slices.Clone(p)
			}
			check := func(v int32, step int) {
				t.Helper()
				want := oracle[v]
				if got := s.palSize(v); got != len(want) {
					t.Fatalf("step %d node %d: palSize %d, oracle %d", step, v, got, len(want))
				}
				var got []graph.Color
				s.palForEach(v, func(c graph.Color) bool { got = append(got, c); return true })
				if !slices.Equal(got, want) {
					t.Fatalf("step %d node %d: palForEach %v, oracle %v", step, v, got, want)
				}
				for bin := int64(0); bin < 2; bin++ {
					n := 0
					for _, c := range want {
						if probe.Eval(c) == bin {
							n++
						}
					}
					if got := s.palCountBin(v, probe, bin); got != n {
						t.Fatalf("step %d node %d: palCountBin(%d) %d, oracle %d", step, v, bin, got, n)
					}
					if got := s.palCountMask(v, probeMasks[bin]); got != n {
						t.Fatalf("step %d node %d: palCountMask(%d) %d, oracle %d", step, v, bin, got, n)
					}
				}
				k := len(want)/2 + 1
				if got := s.palFirstKInto(v, k); !slices.Equal(got, want[:min(k, len(want))]) {
					t.Fatalf("step %d node %d: palFirstKInto(%d) %v, oracle %v", step, v, k, got, want)
				}
			}
			remove := func(v int32, c graph.Color) {
				s.palRemove(v, c)
				if i, ok := slices.BinarySearch(oracle[v], c); ok {
					oracle[v] = slices.Delete(oracle[v], i, i+1)
				}
			}
			for step := 0; step < 300; step++ {
				v := int32(rng.Intn(len(tc.pals)))
				pal := oracle[v]
				switch op := rng.Intn(6); {
				case op == 0:
					h, bin := fam.Member(rng.Uint64()), rng.Int63n(2)
					s.palRestrictMask(v, binMask(h, bin))
					oracle[v] = keep(pal, h, bin)
				case op == 1:
					h, bin := fam.Member(rng.Uint64()), rng.Int63n(2)
					s.palRestrict(v, h, bin)
					oracle[v] = keep(pal, h, bin)
				case op == 2 && len(pal) > 0:
					// Remove every color of one word, emptying it.
					i0, _ := s.dom.index(pal[rng.Intn(len(pal))])
					for _, c := range slices.Clone(pal) {
						if i, _ := s.dom.index(c); i>>6 == i0>>6 {
							remove(v, c)
						}
					}
				case op == 3:
					// Colors v does not hold: one of the domain's, one
					// past it, and one below it.
					if c := dom[rng.Intn(len(dom))]; !slices.Contains(pal, c) {
						remove(v, c)
					}
					remove(v, dom[len(dom)-1]+1)
					remove(v, 0)
				case len(pal) > 0:
					remove(v, pal[rng.Intn(len(pal))])
				}
				check(v, step)
			}
			union := make(graph.PaletteSet, s.dom.words)
			var want []graph.Color
			for v := range oracle {
				check(int32(v), -1)
				s.pal[v].unionInto(union)
				want = append(want, oracle[v]...)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			var got []graph.Color
			union.ForEach(func(i int) bool { got = append(got, dom[i]); return true })
			if !slices.Equal(got, want) {
				t.Fatalf("unionInto holds %d colors, oracle %d", len(got), len(want))
			}
		})
	}
}
