// Package derand is ccolor's distributed derandomization engine — the
// executable counterpart of the paper's method of conditional expectations
// (§2.4).
//
// The engine deterministically selects a pair of hash functions
// (h₁, h₂) ∈ H₁ × H₂ whose realized cost 𝔮(h₁, h₂) meets a target Q known
// to dominate E[𝔮] (paper Lemma 3.8 / Lemma 4.4). Candidates are drawn in a
// fixed order from the families and evaluated in batches of width 𝔫^δ: per
// batch, every worker computes its exact local contribution for every
// candidate and one O(1)-round vector aggregation
// (fabric.VecScratch.AggregateVec) sums them; the first candidate at or
// below target is fixed and broadcast. Where the cost has no a-priori
// target (Definition 4.1 chunk badness at finite scale, the MIS phase
// potential), the same batches run over a fixed budget and the argmin is
// fixed instead.
//
// There is one selector, VecSelector, and one batch shape: a Prepare hook
// tabulates the batch's hash values once, and one local callback per
// worker per batch scores every candidate from those tables. The core
// partition, the low-space partition and the MIS phases all select
// through it.
//
// This replaces the paper's bit-prefix conditional expectations, whose
// conditionals have no closed form for polynomial hash families, with an
// equally deterministic search over fully-specified seeds: existence of a
// below-target candidate is the same probabilistic-method fact, the
// communication pattern per batch is the same O(1)-round aggregation, and
// the selected seed satisfies the same guarantee — which the engine
// additionally *verifies* rather than assumes.
package derand

import (
	"errors"
	"unsafe"

	"ccolor/internal/fabric"
	"ccolor/internal/hashing"
)

// Pair is a candidate (h1, h2) drawn from the two families.
type Pair struct {
	H1, H2 hashing.Hash
	Index  uint64 // candidate index within the fixed enumeration
}

// Stats reports the cost of one selection.
type Stats struct {
	Batches int // aggregation batches executed (rounds ≈ 2 per batch)
	// Candidates counts candidates in enumeration order up to and
	// including the selected one; SelectMin and an exhausted search count
	// every candidate. It is not the number evaluated: each batch scores
	// its full width, Batches × width candidates in all.
	Candidates int
	Cost       int64 // realized cost of the selected pair
}

// ErrExhausted is returned when no candidate met the target within the
// configured search horizon; it indicates either a mis-set target (not a
// true expectation bound) or a pathological instance.
var ErrExhausted = errors.New("derand: no candidate met the cost target")

// Workspace holds the selection engine's reusable buffers: the batch's
// candidate pairs (hashing.MemberInto slots — zero coefficient allocation
// after warmup), the per-worker local contribution slab, and the fabric
// aggregation and broadcast scratch. One workspace serves any number of
// VecSelector runs sequentially; solver sessions retain one per solve
// stack so the derandomization hot path stops allocating in steady state.
//
// Candidate hashes alias workspace slots and are valid only until the next
// batch on the same workspace (the hashing.MemberInto contract); winning
// pairs are re-materialized with owned coefficients before they are
// returned, so callers may retain them freely.
type Workspace struct {
	cands []Pair
	coeff []uint64 // coefficient slab, one MemberInto slot per hash
	vals  []int64  // windows×vlen local-contribution slab
	agg   fabric.VecScratch
	word  [1]uint64 // the winner broadcast's payload
}

// fillCandidates enumerates the batch's candidates [base, base+width) into
// the workspace slots, in the same fixed order Member-based enumeration
// walks.
func (ws *Workspace) fillCandidates(f1, f2 hashing.Family, base uint64, width int) []Pair {
	c1, c2 := f1.C, f2.C
	need := width * (c1 + c2)
	if cap(ws.coeff) < need {
		ws.coeff = make([]uint64, need)
	}
	ws.coeff = ws.coeff[:need]
	if cap(ws.cands) < width {
		ws.cands = make([]Pair, width)
	}
	ws.cands = ws.cands[:width]
	off := 0
	for i := 0; i < width; i++ {
		idx := base + uint64(i)
		h1, _ := f1.MemberInto(mix(idx, 1), ws.coeff[off:off:off+c1])
		off += c1
		h2, _ := f2.MemberInto(mix(idx, 2), ws.coeff[off:off:off+c2])
		off += c2
		ws.cands[i] = Pair{H1: h1, H2: h2, Index: idx}
	}
	return ws.cands
}

// workerVals returns the windows×vlen slab; window w is
// [w·vlen, (w+1)·vlen). One window per worker keeps the ungrouped fabrics'
// concurrent local callbacks race-free without per-call allocation.
func (ws *Workspace) workerVals(windows, vlen int) []int64 {
	need := windows * vlen
	if cap(ws.vals) < need {
		ws.vals = make([]int64, need)
	}
	ws.vals = ws.vals[:need]
	return ws.vals
}

// MemoryWords reports the workspace's retained footprint in 64-bit words:
// the candidate slots and coefficient slab, the contribution slab, and the
// aggregation scratch, at their capacities.
func (ws *Workspace) MemoryWords() int64 {
	pairWords := int64(unsafe.Sizeof(Pair{}) / 8)
	return int64(cap(ws.cands))*pairWords + int64(cap(ws.coeff)+cap(ws.vals)) + ws.agg.MemoryWords()
}

// materialize rebuilds candidate idx with owned coefficient storage: the
// winner outlives the batch buffers (partition stores h₂ in palette
// restriction chains), so it must not alias workspace slots.
func materialize(f1, f2 hashing.Family, idx uint64) Pair {
	return Pair{H1: f1.Member(mix(idx, 1)), H2: f2.Member(mix(idx, 2)), Index: idx}
}

// DefaultMaxBatches bounds the search; expected batches is ~1 when the
// target dominates the expectation.
const DefaultMaxBatches = 64

// mix derives independent sub-streams for the two families from a candidate
// index (splitmix64 on a salted input).
func mix(x uint64, stream uint64) uint64 {
	z := x + stream*0xbf58476d1ce4e5b9 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
