package core

import (
	"ccolor/internal/derand"
	"ccolor/internal/graph"
)

// seedTable is Partition's node-major table for one batch of seed
// candidates: node v's row holds h₁(v) under every candidate of the batch
// side by side, one lane per candidate, so XOR-ing two rows compares v's bin
// with a neighbour's under a whole word of candidates at once.
//
// A lane is the narrowest of 8, 16 or 32 bits that holds every bin index
// below B. Any B ≤ 256 (the defaults give B ≤ 8) packs eight candidates per
// word, so the default batch width of eight costs one word per node and
// one neighbour walk scores the whole batch; wider batches walk the list
// once per row word.
type seedTable struct {
	words  []uint64 // stride words per node; aliases workspace scratch
	stride int      // words per row
	width  int      // candidates in the batch
	bits   uint     // lane width
	lanes  int      // lanes per word
	high   uint64   // the top bit of every lane
}

func newSeedTable(b int) seedTable {
	bits := uint(8)
	for bits < 32 && b > 1<<bits {
		bits *= 2
	}
	var high uint64
	for i := bits - 1; i < 64; i += bits {
		high |= 1 << i
	}
	return seedTable{bits: bits, lanes: 64 / int(bits), high: high}
}

// reset sizes the table for a batch of width candidates over n nodes,
// carving it out of slab, which keeps the grown backing array.
func (t *seedTable) reset(slab *[]uint64, n, width int) {
	t.width = width
	t.stride = (width + t.lanes - 1) / t.lanes
	*slab = graph.Grow(*slab, n*t.stride)
	t.words = *slab
}

// fillRow tabulates h₁(v) under every candidate into v's row. Lanes past
// the batch width stay zero for every node, so they always compare equal
// and are never read back.
func (t *seedTable) fillRow(v int32, cands []derand.Pair) {
	row := t.words[int(v)*t.stride : (int(v)+1)*t.stride]
	for k := range row {
		var word uint64
		for j := 0; j < t.lanes && k*t.lanes+j < len(cands); j++ {
			word |= uint64(cands[k*t.lanes+j].H1.Eval(int64(v))) << (uint(j) * t.bits)
		}
		row[k] = word
	}
}

// bin returns h₁(v) under candidate i of the batch.
func (t *seedTable) bin(v int32, i int) int {
	word := t.words[int(v)*t.stride+i/t.lanes]
	return int(word >> (uint(i%t.lanes) * t.bits) & (1<<t.bits - 1))
}

// addSameBin adds to out[i·perCand], for every candidate i, the number of
// v's neighbours u in call id that share v's bin under candidate i — the
// d′(v) of Definition 3.1. Colored nodes carry callOf −1, so the stamp alone
// decides membership.
//
// The count has no data-dependent branch. Per neighbour, one XOR of the
// two rows leaves a zero lane exactly where the bins agree. Adding low to
// x&low sets a lane's top bit when its low bits are nonzero, without a
// carry into the next lane; OR-ing x adds lanes whose top bit was set. The
// complement's top bits thus mark the equal lanes, and shifted down to bit
// 0 and masked by membership (a conditional move) they add into per-lane
// counters. A lane counter holds 2^bits − 1, so the walk drains the
// counters into out once per that many neighbours.
func (t *seedTable) addSameBin(v int32, nbrs, callOf []int32, id int32, out []int64, perCand int) {
	words, stride := t.words, t.stride
	high, low := t.high, ^t.high
	shift := t.bits - 1
	laneMask := uint64(1)<<t.bits - 1
	drain := int(laneMask)
	for k := 0; k < stride; k++ {
		mine := words[int(v)*stride+k]
		for start := 0; start < len(nbrs); start += drain {
			var acc uint64
			for _, u := range nbrs[start:min(start+drain, len(nbrs))] {
				x := words[int(u)*stride+k] ^ mine
				equal := (^(((x & low) + low) | x) & high) >> shift
				var member uint64
				if callOf[u] == id {
					member = ^uint64(0)
				}
				acc += equal & member
			}
			for j := 0; j < t.lanes && k*t.lanes+j < t.width; j++ {
				out[(k*t.lanes+j)*perCand] += int64(acc >> (uint(j) * t.bits) & laneMask)
			}
		}
	}
}
