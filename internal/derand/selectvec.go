package derand

import (
	"fmt"

	"ccolor/internal/fabric"
	"ccolor/internal/hashing"
)

// VecSelector generalizes Selector to vector-valued local contributions:
// each worker reports perCand values per candidate (e.g. [bad-node
// indicator, bin-occupancy counts…]); after aggregation a driver-side score
// function condenses each candidate's totals into the scalar cost 𝔮.
// This is how Partition's cost (Eq. 1: bad nodes + 𝔫·bad bins) is computed,
// since bad bins are only visible in the aggregate.
type VecSelector struct {
	F1, F2     hashing.Family
	PerCand    int // aggregated values per candidate
	BatchWidth int
	MaxBatches int
	Salt       uint64
	// WS, when set, backs candidate enumeration and cost aggregation with
	// session-reusable buffers; nil falls back to per-call transients.
	WS *Workspace
	// Prepare, when set, runs once per batch after candidate enumeration
	// and before any LocalVec call. Callers use it to precompute shared
	// per-candidate tables (e.g. node→bin and color→bin hash evaluations)
	// that the per-worker callbacks then read concurrently, turning
	// O(workers) hash evaluations per candidate into O(1) amortized. It
	// runs single-threaded; tables must be read-only once local runs.
	Prepare func(cands []Pair)
}

// LocalVec fills worker w's contribution for the whole batch into out,
// which arrives zeroed and holds perCand values per candidate:
// cands[i]'s window is out[i·perCand : (i+1)·perCand]. One call per worker
// per batch lets the callback share its work across candidates (one pass
// over a node's neighbours scores them all); writing in place keeps the
// per-worker hot path allocation-free.
type LocalVec func(w int, cands []Pair, out []int64)

// Score condenses a candidate's aggregated totals into its cost.
type Score func(totals []int64) int64

// Result is the outcome of a vector selection.
type Result struct {
	Pair   Pair
	Totals []int64 // the winning candidate's aggregated vector
	Stats  Stats
}

// Select runs batched candidate evaluation over the fabric and returns the
// first candidate (in the fixed enumeration order) whose score is ≤ target.
func (s *VecSelector) Select(f fabric.Fabric, pairWords int, target int64, local LocalVec, score Score) (Result, error) {
	width := s.BatchWidth
	if width < 1 {
		width = 1
	}
	maxVec := f.Workers() * pairWords
	if width*s.PerCand > maxVec {
		width = maxVec / s.PerCand
		if width < 1 {
			return Result{}, fmt.Errorf("derand: perCand %d exceeds fabric vector capacity %d", s.PerCand, maxVec)
		}
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
	vlen := width * s.PerCand
	slab := ws.workerVals(f.Workers(), vlen)
	for batch := 0; batch < maxBatches; batch++ {
		cands := ws.fillCandidates(s.F1, s.F2, uint64(batch*width)+s.Salt, width)
		if s.Prepare != nil {
			s.Prepare(cands)
		}
		totals, err := ws.agg.AggregateVec(f, pairWords, vlen, func(w int) []int64 {
			vals := slab[w*vlen : (w+1)*vlen]
			clear(vals)
			local(w, cands, vals)
			return vals
		})
		if err != nil {
			return Result{}, fmt.Errorf("derand: aggregate batch %d: %w", batch, err)
		}
		st.Batches++
		for i := range cands {
			st.Candidates++
			candTotals := totals[i*s.PerCand : (i+1)*s.PerCand]
			if c := score(candTotals); c <= target {
				st.Cost = c
				winner := materialize(s.F1, s.F2, cands[i].Index)
				if err := fabric.Broadcast(f, pairWords, 0, []uint64{winner.Index}); err != nil {
					return Result{}, fmt.Errorf("derand: broadcast winner: %w", err)
				}
				out := make([]int64, s.PerCand)
				copy(out, candTotals)
				return Result{Pair: winner, Totals: out, Stats: st}, nil
			}
		}
	}
	return Result{Stats: st}, fmt.Errorf("%w (target %d after %d candidates)", ErrExhausted, target, st.Candidates)
}
