package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// List palettes. ListInstance and DegPlus1Instance draw every node's list
// from one splitmix64 stream, node by node: each draw is Intn(universe),
// and a color the node already holds is drawn again. Rows are written
// into one slab in draw order, deduplicated through an open-addressing set
// sized by the row (a universe may be any positive int64, so nothing is
// sized by it) and ordered in place, so an instance costs two allocations
// plus row-sized scratch, whatever its node count.

// DegPlus1Instance builds a (deg+1)-list coloring instance: node v receives
// the first deg(v)+1 colors of a per-node list drawn deterministically from
// a universe of size universe, using the given seed.
func DegPlus1Instance(g *Graph, universe int64, seed uint64) (*Instance, error) {
	if universe < int64(g.MaxDegree()+1) {
		return nil, fmt.Errorf("graph: universe %d smaller than Δ+1=%d", universe, g.MaxDegree()+1)
	}
	return drawLists(g, universe, seed, func(v int) int { return g.Degree(int32(v)) + 1 })
}

// ListInstance builds a (Δ+1)-list coloring instance: every node receives a
// palette of exactly Δ+1 distinct colors drawn deterministically from a
// universe of size universe (≥ Δ+1).
func ListInstance(g *Graph, universe int64, seed uint64) (*Instance, error) {
	delta := g.MaxDegree()
	if universe < int64(delta+1) {
		return nil, fmt.Errorf("graph: universe %d smaller than Δ+1=%d", universe, delta+1)
	}
	return drawLists(g, universe, seed, func(int) int { return delta + 1 })
}

// drawLists gives node v a palette of rowLen(v) ≥ 1 distinct colors from
// [0, universe), drawn from seed. The palettes are views into one slab.
func drawLists(g *Graph, universe int64, seed uint64, rowLen func(v int) int) (*Instance, error) {
	n := g.N()
	mass, longest := 0, 0
	for v := 0; v < n; v++ {
		k := rowLen(v)
		mass += k
		longest = max(longest, k)
	}
	d := newListDrawer(universe, seed, longest)
	slab := make([]Color, mass)
	pals := make([]Palette, n)
	for v := range pals {
		k := rowLen(v)
		pals[v], slab = slab[:k:k], slab[k:]
		d.draw(pals[v])
	}
	return NewInstance(g, pals)
}

// radixMinRow is the shortest row the drawer orders by radix. Below it a
// row is cheaper to sort by comparison (insertion sort on the short rows
// of sparse and clique-structured graphs) than to pass over a histogram.
const radixMinRow = 48

// fibHash is 2⁶⁴/φ: multiplying by it spreads colors over the row set.
const fibHash = 0x9e3779b97f4a7c15

// listDrawer holds what every row of one instance shares: the stream,
// Intn's modulus and rejection limit, and scratch sized by the longest row.
type listDrawer struct {
	rng          Rand
	bound, limit uint64
	set          []uint64 // open-addressing row set: color+1, 0 when empty
	tmp          []Color  // the radix sort's second buffer
	count        []int32  // one radix digit's histogram
}

func newListDrawer(universe int64, seed uint64, longest int) *listDrawer {
	bound := uint64(universe)
	return &listDrawer{
		rng:   Rand{state: seed},
		bound: bound,
		limit: intnLimit(bound),
		set:   make([]uint64, setSize(longest)),
		tmp:   make([]Color, longest),
		count: make([]int32, 1<<bits.Len(uint(longest))),
	}
}

// setSize is the row set's slot count for a k-color row: a power of two
// at least 2k, so the set is at most half full.
func setSize(k int) int { return 1 << bits.Len(uint(2*k-1)) }

// draw fills row with len(row) distinct colors in the order Intn(universe)
// first yields them, then sorts it ascending.
func (d *listDrawer) draw(row []Color) {
	set := d.set[:setSize(len(row))]
	clear(set)
	mask := uint64(len(set) - 1)
	shift := 64 - uint(bits.Len64(mask))
	var union uint64
	for i := 0; i < len(row); {
		x := d.rng.Uint64()
		if x >= d.limit {
			continue // Intn's rejection
		}
		c := x % d.bound
		for h := (c * fibHash) >> shift; ; h = (h + 1) & mask {
			if set[h] == c+1 {
				break // the row holds c already: draw again
			}
			if set[h] == 0 {
				set[h] = c + 1
				row[i] = Color(c)
				union |= c
				i++
				break
			}
		}
	}
	d.sort(row, bits.Len64(union))
}

// sort orders a row of distinct colors below 2^keyBits ascending. Long
// rows go through an LSD radix whose digits are at most as wide as the
// row length in bits, so a pass's histogram has fewer than twice as many
// buckets as the row has colors; the passes share the key bits evenly.
func (d *listDrawer) sort(row []Color, keyBits int) {
	if len(row) < radixMinRow {
		slices.Sort(row)
		return
	}
	lenBits := bits.Len(uint(len(row)))
	passes := (keyBits + lenBits - 1) / lenBits
	width := uint((keyBits + passes - 1) / passes)
	count := d.count[:1<<width]
	digit := uint64(len(count) - 1)
	src, dst := row, d.tmp[:len(row)]
	for pass := range passes {
		shift := uint(pass) * width
		clear(count)
		for _, c := range src {
			count[(uint64(c)>>shift)&digit]++
		}
		sum := int32(0)
		for b, k := range count {
			count[b] = sum
			sum += k
		}
		for _, c := range src {
			b := (uint64(c) >> shift) & digit
			dst[count[b]] = c
			count[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(row, src)
	}
}
