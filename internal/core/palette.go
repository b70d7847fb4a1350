package core

import (
	"math/bits"
	"slices"

	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// Palette state access. The solver reaches palettes only through these
// methods so that the Theorem 1.3 compact mode (implicit palettes: initial
// range + hash-restriction chain + per-neighbor used colors, paper §3.6)
// and the default packed mode share all algorithm code.

// palState holds one node's palette in one of the two representations.
type palState struct {
	// Packed mode: the current palette as a sparse bitset over the solve's
	// dense color domain (s.dom), already excluding colors used by colored
	// neighbors and restricted by all hash applications. wi lists the
	// indices of the set's words in ascending order and w holds those
	// words; both are views into the workspace slabs. A set only loses
	// bits: restrictions drop the words they empty, and palRemove may leave
	// a zero word behind for the walks to skip. size caches the popcount;
	// every mutation maintains it, so palSize is O(1).
	wi   []int32
	w    []uint64
	size int

	// Compact mode (§3.6): the initial palette is {1..Δ+1}; restrictions
	// are stored as the chain of (hash, kept bin) pairs applied so far, and
	// used colors are stored explicitly (≤ one per neighbor ⇒ O(d(v))
	// words, for O(𝔪) total — the Theorem 1.3 space argument).
	compact   bool
	rangeHi   graph.Color // initial palette is {1..rangeHi}
	chainH    []hashing.Hash
	chainBin  []int64
	used      map[graph.Color]struct{}
	sizeCache int // current palette size; -1 = dirty
}

func (ps *palState) invalidate() { ps.sizeCache = -1 }

// chainAdmits reports whether color c survives the compact restriction
// chain and is not marked used — i.e. whether c is currently in the
// palette, assuming 1 ≤ c ≤ rangeHi.
func (ps *palState) chainAdmits(c graph.Color) bool {
	if _, hit := ps.used[c]; hit {
		return false
	}
	for i, h := range ps.chainH {
		if h.Eval(c) != ps.chainBin[i] {
			return false
		}
	}
	return true
}

// palSize returns the current palette size p(v).
func (s *solver) palSize(v int32) int {
	ps := &s.pal[v]
	if !ps.compact {
		return ps.size
	}
	if ps.sizeCache >= 0 {
		return ps.sizeCache
	}
	n := 0
	s.palForEach(v, func(graph.Color) bool { n++; return true })
	ps.sizeCache = n
	return n
}

// palForEach iterates the current palette of v in ascending color order;
// fn returning false stops early. Packed mode walks set bits of ascending
// words, which is ascending domain order — exactly the order the sorted
// input palette had.
func (s *solver) palForEach(v int32, fn func(graph.Color) bool) {
	ps := &s.pal[v]
	if !ps.compact {
		dom := s.dom.colors
		for k, w := range ps.w {
			base := int(ps.wi[k]) << 6
			for ; w != 0; w &= w - 1 {
				if !fn(dom[base+bits.TrailingZeros64(w)]) {
					return
				}
			}
		}
		return
	}
	for c := graph.Color(1); c <= ps.rangeHi; c++ {
		if ps.chainAdmits(c) && !fn(c) {
			return
		}
	}
}

// palCountBin returns the number of palette colors h maps to bin — the
// p′(v) of Definition 3.1 for a candidate hash. The partition hot path
// uses palCountMask with a precomputed color-bin mask when the mask gate
// is on; this form serves compact mode and list palettes that barely
// overlap.
func (s *solver) palCountBin(v int32, h hashing.Hash, bin int64) int {
	ps := &s.pal[v]
	n := 0
	if !ps.compact {
		dom := s.dom.colors
		for k, w := range ps.w {
			base := int(ps.wi[k]) << 6
			for ; w != 0; w &= w - 1 {
				if h.Eval(dom[base+bits.TrailingZeros64(w)]) == bin {
					n++
				}
			}
		}
		return n
	}
	s.palForEach(v, func(c graph.Color) bool {
		if h.Eval(c) == bin {
			n++
		}
		return true
	})
	return n
}

// palCountMask returns |palette ∩ mask| for a packed-mode node, where mask
// is a domain-indexed bitset (one popcount-AND per word, no hash
// evaluation).
func (s *solver) palCountMask(v int32, mask graph.PaletteSet) int {
	ps := &s.pal[v]
	n := 0
	for k, wi := range ps.wi {
		n += bits.OnesCount64(ps.w[k] & mask[wi])
	}
	return n
}

// palRestrictMask applies a Partition color restriction as a word-wise AND
// with a precomputed domain mask, dropping the words it empties and
// maintaining the size cache in the same pass. Packed mode only.
func (s *solver) palRestrictMask(v int32, mask graph.PaletteSet) {
	ps := &s.pal[v]
	kept, size := 0, 0
	for k, wi := range ps.wi { // compact in place; writes trail reads
		if w := ps.w[k] & mask[wi]; w != 0 {
			ps.wi[kept], ps.w[kept] = wi, w
			kept++
			size += bits.OnesCount64(w)
		}
	}
	ps.wi, ps.w, ps.size = ps.wi[:kept], ps.w[:kept], size
}

// palRestrict applies a Partition color restriction: keep only colors that
// h maps to bin. Packed mode filters set bits in place and drops the words
// it empties (partition itself uses palRestrictMask, which shares one mask
// across the whole bin).
func (s *solver) palRestrict(v int32, h hashing.Hash, bin int64) {
	ps := &s.pal[v]
	if !ps.compact {
		dom := s.dom.colors
		kept, size := 0, 0
		for k, wi := range ps.wi { // compact in place; writes trail reads
			base := int(wi) << 6
			w := ps.w[k]
			for t := w; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				if h.Eval(dom[base+b]) != bin {
					w &^= 1 << uint(b)
				}
			}
			if w != 0 {
				ps.wi[kept], ps.w[kept] = wi, w
				kept++
				size += bits.OnesCount64(w)
			}
		}
		ps.wi, ps.w, ps.size = ps.wi[:kept], ps.w[:kept], size
		return
	}
	ps.chainH = append(ps.chainH, h)
	ps.chainBin = append(ps.chainBin, bin)
	// No closed form for the surviving count; recompute lazily on the next
	// palSize query.
	ps.invalidate()
}

// palRemove deletes one color (used by a newly colored neighbor).
func (s *solver) palRemove(v int32, c graph.Color) {
	ps := &s.pal[v]
	if !ps.compact {
		i, ok := s.dom.index(c)
		if !ok {
			return
		}
		k, ok := ps.wordOf(int32(i >> 6))
		if bit := uint64(1) << (uint(i) & 63); ok && ps.w[k]&bit != 0 {
			ps.w[k] &^= bit // a zero word stays behind; the walks skip it
			ps.size--
		}
		return
	}
	// Maintain the size cache incrementally: the count drops only if c was
	// actually present (in range, not already used, admitted by the chain).
	// Checking costs one chain evaluation instead of the full rescan a
	// blanket invalidate would force on the next palSize.
	present := c >= 1 && c <= ps.rangeHi && ps.chainAdmits(c)
	if ps.used == nil {
		ps.used = make(map[graph.Color]struct{})
	}
	ps.used[c] = struct{}{}
	if present && ps.sizeCache >= 0 {
		ps.sizeCache--
	}
}

// wordOf returns the position of domain word x among ps's packed words.
// The word indices ascend without repeats, so x sits at most x−wi[0]
// places in; while no word below x has been dropped, as in a Δ+1
// palette, it sits exactly there and one probe finds it.
func (ps *palState) wordOf(x int32) (int, bool) {
	if len(ps.wi) == 0 || x < ps.wi[0] {
		return 0, false
	}
	last := min(int(x-ps.wi[0]), len(ps.wi)-1)
	if ps.wi[last] == x {
		return last, true
	}
	return slices.BinarySearch(ps.wi[:last], x)
}

// palFirstKInto returns the first k colors of v's current palette (for the
// §3.6 truncation to d(v)+1 colors before local collection) in the
// workspace truncation scratch — the collect gather copies the result into
// its payload block before the next node is visited, so one shared buffer
// serves the whole wave.
func (s *solver) palFirstKInto(v int32, k int) []graph.Color {
	out := s.wsp.firstK[:0]
	s.palForEach(v, func(c graph.Color) bool {
		out = append(out, c)
		return len(out) < k
	})
	s.wsp.firstK = out
	return out
}

// unionInto ors ps's packed words into union, the partition's live-palette
// union over the dense domain.
func (ps *palState) unionInto(union graph.PaletteSet) {
	for k, wi := range ps.wi {
		union[wi] |= ps.w[k]
	}
}

// palWords returns the number of words node v's palette state occupies —
// the quantity the space ledgers charge. Compact mode charges the chain and
// used set (Theorem 1.3); packed mode charges one word per remaining color,
// the same list count the materialized representation reported (Theorem
// 1.2), so traces are unchanged across representations.
func (s *solver) palWords(v int32) int64 {
	ps := &s.pal[v]
	if !ps.compact {
		return int64(ps.size)
	}
	// Each chain entry is one O(log 𝔫)-bit seed (constant words); count the
	// hash coefficients explicitly.
	words := int64(1) // rangeHi
	for _, h := range ps.chainH {
		words += int64(h.NumCoefficients()) + 1
	}
	words += int64(len(ps.used))
	return words
}
