// Package derand is ccolor's distributed derandomization engine — the
// executable counterpart of the paper's method of conditional expectations
// (§2.4).
//
// The engine deterministically selects a pair of hash functions
// (h₁, h₂) ∈ H₁ × H₂ whose realized cost 𝔮(h₁, h₂) meets a target Q known
// to dominate E[𝔮] (paper Lemma 3.8 / Lemma 4.4). Candidates are drawn in a
// fixed order from the families and evaluated in batches of width 𝔫^δ: per
// batch, every worker computes its exact local cost for every candidate and
// one O(1)-round vector aggregation (fabric.AggregateVec) sums them; the
// first candidate at or below target is fixed and broadcast.
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
	"fmt"

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
	// including the selected one; SelectBest and an exhausted search count
	// every candidate. It is not the number evaluated: the fabric selectors
	// score each batch's full width, Batches × width candidates in all.
	Candidates int
	Cost       int64 // realized cost of the selected pair
}

// ErrExhausted is returned when no candidate met the target within the
// configured search horizon; it indicates either a mis-set target (not a
// true expectation bound) or a pathological instance.
var ErrExhausted = errors.New("derand: no candidate met the cost target")

// Selector selects hash pairs against per-worker local cost functions.
type Selector struct {
	F1, F2     hashing.Family
	BatchWidth int // candidates evaluated per aggregation batch (𝔫^δ)
	MaxBatches int // search horizon; 0 means DefaultMaxBatches
	Salt       uint64
	// WS, when set, backs candidate enumeration and cost aggregation with
	// session-reusable buffers; nil falls back to per-call transients.
	WS *Workspace
	// Prepare, when set, runs once per batch after candidate enumeration
	// and before any LocalCost call, so callers can precompute shared
	// per-candidate tables (node→bin / color→bin hash evaluations) the
	// cost callbacks then read. Single-threaded; tables must be read-only
	// once cost evaluation starts.
	Prepare func(cands []Pair)
}

// Workspace holds the selection engine's reusable buffers: the batch's
// candidate pairs (hashing.MemberInto slots — zero coefficient allocation
// after warmup), the per-worker local cost slab, and the fabric
// aggregation scratch. One workspace serves any number of Selector /
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
	vals  []int64  // workers×vlen local-contribution slab
	agg   fabric.VecScratch
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

// workerVals returns the workers×vlen slab; worker w's window is
// [w·vlen, (w+1)·vlen). Distinct windows keep the ungrouped fabrics'
// concurrent local callbacks race-free without per-call allocation.
func (ws *Workspace) workerVals(workers, vlen int) []int64 {
	need := workers * vlen
	if cap(ws.vals) < need {
		ws.vals = make([]int64, need)
	}
	ws.vals = ws.vals[:need]
	return ws.vals
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

// LocalCost computes worker w's exact contribution to 𝔮 for a fully
// specified candidate pair.
type LocalCost func(w int, p Pair) int64

// Select runs the distributed selection over the fabric: per batch, every
// worker evaluates LocalCost for each candidate; costs are aggregated with
// one O(1)-round vector sum; the first candidate with total cost ≤ target
// wins. The winning pair's index is then broadcast (1 round) so all workers
// can reconstruct the seed, exactly as the paper's agreed O(log 𝔫)-bit seed.
func (s *Selector) Select(f fabric.Fabric, pairWords int, target int64, cost LocalCost) (Pair, Stats, error) {
	width := s.BatchWidth
	if width < 1 {
		width = 1
	}
	maxWidth := f.Workers() * pairWords
	if width > maxWidth {
		width = maxWidth
	}
	maxBatches := s.MaxBatches
	if maxBatches == 0 {
		maxBatches = DefaultMaxBatches
	}
	var st Stats
	ws := s.WS
	if ws == nil {
		ws = &Workspace{}
	}
	slab := ws.workerVals(f.Workers(), width)
	for batch := 0; batch < maxBatches; batch++ {
		cands := ws.fillCandidates(s.F1, s.F2, uint64(batch*width)+s.Salt, width)
		if s.Prepare != nil {
			s.Prepare(cands)
		}
		totals, err := ws.agg.AggregateVec(f, pairWords, width, func(w int) []int64 {
			vals := slab[w*width : (w+1)*width]
			for i, p := range cands {
				vals[i] = cost(w, p)
			}
			return vals
		})
		if err != nil {
			return Pair{}, st, fmt.Errorf("derand: aggregate batch %d: %w", batch, err)
		}
		st.Batches++
		for i, total := range totals {
			st.Candidates++
			if total <= target {
				st.Cost = total
				winner := materialize(s.F1, s.F2, cands[i].Index)
				if err := fabric.Broadcast(f, pairWords, 0, []uint64{winner.Index}); err != nil {
					return Pair{}, st, fmt.Errorf("derand: broadcast winner: %w", err)
				}
				return winner, st, nil
			}
		}
	}
	return Pair{}, st, fmt.Errorf("%w (target %d after %d candidates)", ErrExhausted, target, st.Candidates)
}

// SelectBest evaluates exactly budgetBatches batches of candidates and
// returns the one with minimum total cost (ties broken by enumeration
// order). Used where the cost has no a-priori expectation target — e.g.
// Definition 4.1 chunk badness at finite scale, or the MIS phase potential
// — while remaining deterministic and O(1)-round per batch.
func (s *Selector) SelectBest(f fabric.Fabric, pairWords int, budgetBatches int, cost LocalCost) (Pair, Stats, error) {
	width := s.BatchWidth
	if width < 1 {
		width = 1
	}
	maxWidth := f.Workers() * pairWords
	if width > maxWidth {
		width = maxWidth
	}
	if budgetBatches < 1 {
		budgetBatches = 1
	}
	var st Stats
	var bestIdx uint64
	bestCost := int64(1<<62 - 1)
	haveBest := false
	ws := s.WS
	if ws == nil {
		ws = &Workspace{}
	}
	slab := ws.workerVals(f.Workers(), width)
	for batch := 0; batch < budgetBatches; batch++ {
		cands := ws.fillCandidates(s.F1, s.F2, uint64(batch*width)+s.Salt, width)
		if s.Prepare != nil {
			s.Prepare(cands)
		}
		totals, err := ws.agg.AggregateVec(f, pairWords, width, func(w int) []int64 {
			vals := slab[w*width : (w+1)*width]
			for i, p := range cands {
				vals[i] = cost(w, p)
			}
			return vals
		})
		if err != nil {
			return Pair{}, st, fmt.Errorf("derand: aggregate batch %d: %w", batch, err)
		}
		st.Batches++
		for i, total := range totals {
			st.Candidates++
			if !haveBest || total < bestCost {
				bestCost = total
				bestIdx = cands[i].Index
				haveBest = true
			}
		}
	}
	st.Cost = bestCost
	best := materialize(s.F1, s.F2, bestIdx)
	if err := fabric.Broadcast(f, pairWords, 0, []uint64{best.Index}); err != nil {
		return Pair{}, st, fmt.Errorf("derand: broadcast winner: %w", err)
	}
	return best, st, nil
}

// SelectLocal is the communication-free variant used by centrally-executed
// baselines and tests: it evaluates the same candidate order against a
// global cost function.
func (s *Selector) SelectLocal(target int64, cost func(p Pair) int64) (Pair, Stats, error) {
	width := s.BatchWidth
	if width < 1 {
		width = 1
	}
	maxBatches := s.MaxBatches
	if maxBatches == 0 {
		maxBatches = DefaultMaxBatches
	}
	var st Stats
	for t := uint64(0); t < uint64(maxBatches*width); t++ {
		idx := t + s.Salt
		p := Pair{H1: s.F1.Member(mix(idx, 1)), H2: s.F2.Member(mix(idx, 2)), Index: idx}
		st.Candidates++
		if c := cost(p); c <= target {
			st.Cost = c
			st.Batches = (int(t) / width) + 1
			return p, st, nil
		}
	}
	st.Batches = maxBatches
	return Pair{}, st, fmt.Errorf("%w (target %d after %d candidates)", ErrExhausted, target, st.Candidates)
}

// mix derives independent sub-streams for the two families from a candidate
// index (splitmix64 on a salted input).
func mix(x uint64, stream uint64) uint64 {
	z := x + stream*0xbf58476d1ce4e5b9 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
