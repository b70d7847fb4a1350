package core

import (
	"math/bits"
	"slices"

	"ccolor/internal/graph"
)

// maxDenseUniverse bounds the color universe for which the domain keeps a
// direct presence bitmap (O(1) color → dense-index lookups). Beyond it the
// domain falls back to binary search over the sorted color list.
const maxDenseUniverse = 1 << 22

// palDomain is the dense index space the bitset palettes of one solve are
// packed over: the ascending distinct colors across all input palettes. A
// presence bitmap plus per-word rank prefix gives O(1) color → index
// lookups (two loads and a popcount), so palette pruning never binary
// searches on the hot path. The buffers grow to the largest instance seen
// and are reused across warm solves.
type palDomain struct {
	colors []graph.Color // ascending distinct colors
	bitmap []uint64      // presence bitmap over [0, universe)
	rank   []int32       // set bits in bitmap words before each word
	words  int           // PaletteSetWords(len(colors))
}

// build indexes the distinct colors of the given palettes, visiting a
// palette that is the same slice as the previous one only once. Colors
// must be non-negative (newSolver checks).
func (d *palDomain) build(pals []graph.Palette) {
	maxColor := graph.Color(-1)
	for _, p := range pals {
		if len(p) > 0 && p[len(p)-1] > maxColor {
			maxColor = p[len(p)-1]
		}
	}
	d.colors = d.colors[:0]
	if maxColor >= maxDenseUniverse {
		// Sparse fallback: sort-dedup the concatenated palettes; index()
		// binary searches.
		d.bitmap = nil
		d.rank = nil
		for v, p := range pals {
			if v == 0 || !sameSlice(p, pals[v-1]) {
				d.colors = append(d.colors, p...)
			}
		}
		slices.Sort(d.colors)
		d.colors = slices.Compact(d.colors)
		d.words = graph.PaletteSetWords(len(d.colors))
		return
	}
	nw := int(maxColor>>6) + 1
	if maxColor < 0 {
		nw = 0
	}
	if cap(d.bitmap) < nw {
		d.bitmap = make([]uint64, nw)
		d.rank = make([]int32, nw)
	}
	d.bitmap = d.bitmap[:nw]
	d.rank = d.rank[:nw]
	clear(d.bitmap)
	for v, p := range pals {
		if v > 0 && sameSlice(p, pals[v-1]) {
			continue
		}
		for _, c := range p {
			d.bitmap[c>>6] |= 1 << (uint(c) & 63)
		}
	}
	n := int32(0)
	for wi, w := range d.bitmap {
		d.rank[wi] = n
		base := graph.Color(wi << 6)
		for t := w; t != 0; t &= t - 1 {
			d.colors = append(d.colors, base+graph.Color(bits.TrailingZeros64(t)))
		}
		n += int32(bits.OnesCount64(w))
	}
	d.words = graph.PaletteSetWords(len(d.colors))
}

// index returns the dense index of color c and whether c is in the domain.
func (d *palDomain) index(c graph.Color) (int, bool) {
	if d.bitmap != nil {
		if c < 0 || int(c>>6) >= len(d.bitmap) {
			return 0, false
		}
		w := d.bitmap[c>>6]
		b := uint(c) & 63
		if w>>b&1 == 0 {
			return 0, false
		}
		return int(d.rank[c>>6]) + bits.OnesCount64(w&(1<<b-1)), true
	}
	i, ok := slices.BinarySearch(d.colors, c)
	return i, ok
}

// sameSlice reports whether a and b are the same slice: one backing array,
// one length.
func sameSlice(a, b graph.Palette) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
