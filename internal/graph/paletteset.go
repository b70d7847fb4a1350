package graph

import "math/bits"

// PaletteSet is a packed bitset over a dense color-index domain: bit i set
// means the i-th color of the domain is present. The solver builds two
// kinds over a solve's whole color domain: the union of a call's live
// palettes, and the per-candidate color-bin masks whose AND with a packed
// palette counts and restricts it in word operations. Bit order is domain
// order, so iterating set bits ascending yields colors in ascending order.
type PaletteSet []uint64

// PaletteSetWords returns the number of words a set over an n-index domain
// occupies.
func PaletteSetWords(n int) int { return (n + 63) >> 6 }

// Add inserts index i.
func (s PaletteSet) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear empties the set.
func (s PaletteSet) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Len returns the number of present indices.
func (s PaletteSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach visits the present indices in ascending order; fn returning false
// stops the iteration.
func (s PaletteSet) ForEach(fn func(i int) bool) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}
