package derand

import (
	"fmt"

	"ccolor/internal/fabric"
	"ccolor/internal/hashing"
)

// VecSelector selects hash pairs against vector-valued local
// contributions: each worker reports PerCand values per candidate (e.g.
// [bad-node indicator, bin-occupancy counts…], or one value for a scalar
// cost); after aggregation a driver-side score function condenses each
// candidate's totals into the scalar cost 𝔮. This is how Partition's cost
// (Eq. 1: bad nodes + 𝔫·bad bins) is computed, since bad bins are only
// visible in the aggregate.
type VecSelector struct {
	F1, F2     hashing.Family
	PerCand    int // aggregated values per candidate
	BatchWidth int // candidates evaluated per aggregation batch (𝔫^δ)
	MaxBatches int // Select's search horizon; 0 means DefaultMaxBatches
	Salt       uint64
	// WS, when set, backs candidate enumeration, cost aggregation and the
	// winner broadcast with session-reusable buffers; nil falls back to
	// per-call transients.
	WS *Workspace
	// Prepare, when set, runs once per batch after candidate enumeration
	// and before any LocalVec call. Callers use it to precompute shared
	// per-candidate tables (e.g. node→bin and color→bin hash evaluations,
	// or MIS priorities) that the per-worker callbacks then read
	// concurrently, turning O(workers) hash evaluations per candidate into
	// O(1) amortized. It runs single-threaded; tables must be read-only
	// once local runs.
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

// Total is the Score of a PerCand-1 selection: the aggregated cost itself.
func Total(totals []int64) int64 { return totals[0] }

// Result is the outcome of a vector selection.
type Result struct {
	Pair   Pair
	Totals []int64 // the winning candidate's aggregated vector
	Stats  Stats
}

// Select runs batched candidate evaluation over the fabric and returns the
// first candidate (in the fixed enumeration order) whose score is ≤ target.
// The winning pair's index is then broadcast so all workers can
// reconstruct the seed, exactly as the paper's agreed O(log 𝔫)-bit seed.
func (s *VecSelector) Select(f fabric.Fabric, pairWords int, target int64, local LocalVec, score Score) (Result, error) {
	width, err := s.width(f, pairWords)
	if err != nil {
		return Result{}, err
	}
	maxBatches := s.MaxBatches
	if maxBatches == 0 {
		maxBatches = DefaultMaxBatches
	}
	ws := s.workspace()
	var st Stats
	for batch := 0; batch < maxBatches; batch++ {
		cands, totals, err := s.batch(f, pairWords, ws, batch, width, local)
		if err != nil {
			return Result{}, err
		}
		st.Batches++
		for i := range cands {
			st.Candidates++
			candTotals := totals[i*s.PerCand : (i+1)*s.PerCand : (i+1)*s.PerCand]
			if c := score(candTotals); c <= target {
				st.Cost = c
				return s.announce(f, pairWords, ws, cands[i].Index, candTotals, st)
			}
		}
	}
	return Result{Stats: st}, fmt.Errorf("%w (target %d after %d candidates)", ErrExhausted, target, st.Candidates)
}

// SelectMin evaluates exactly budget batches (at least one) and returns
// the candidate of minimum score, ties broken by enumeration order, then
// broadcasts its index as Select does. It serves costs with no a-priori
// expectation target — Definition 4.1 chunk badness at finite scale, or
// the MIS phase potential — while remaining deterministic and O(1)-round
// per batch. Stats.Candidates counts every candidate scored.
func (s *VecSelector) SelectMin(f fabric.Fabric, pairWords int, budget int, local LocalVec, score Score) (Result, error) {
	width, err := s.width(f, pairWords)
	if err != nil {
		return Result{}, err
	}
	ws := s.workspace()
	var st Stats
	var bestIdx uint64
	var bestTotals []int64
	for batch := 0; batch < max(budget, 1); batch++ {
		cands, totals, err := s.batch(f, pairWords, ws, batch, width, local)
		if err != nil {
			return Result{}, err
		}
		st.Batches++
		for i := range cands {
			st.Candidates++
			candTotals := totals[i*s.PerCand : (i+1)*s.PerCand : (i+1)*s.PerCand]
			if c := score(candTotals); st.Candidates == 1 || c < st.Cost {
				st.Cost, bestIdx, bestTotals = c, cands[i].Index, candTotals
			}
		}
	}
	return s.announce(f, pairWords, ws, bestIdx, bestTotals, st)
}

// width returns the batch width, clamped so one batch's vector
// (width·PerCand values) fits the fabric's aggregation capacity.
func (s *VecSelector) width(f fabric.Fabric, pairWords int) (int, error) {
	width := max(s.BatchWidth, 1)
	maxVec := f.Workers() * pairWords
	if width*s.PerCand > maxVec {
		width = maxVec / s.PerCand
		if width < 1 {
			return 0, fmt.Errorf("derand: perCand %d exceeds fabric vector capacity %d", s.PerCand, maxVec)
		}
	}
	return width, nil
}

func (s *VecSelector) workspace() *Workspace {
	if s.WS != nil {
		return s.WS
	}
	return &Workspace{}
}

// batch enumerates batch number batch's candidates, runs Prepare, and sums
// every worker's contributions in one aggregation. The totals are freshly
// allocated, so they stay valid across later batches.
func (s *VecSelector) batch(f fabric.Fabric, pairWords int, ws *Workspace, batch, width int, local LocalVec) ([]Pair, []int64, error) {
	cands := ws.fillCandidates(s.F1, s.F2, uint64(batch*width)+s.Salt, width)
	if s.Prepare != nil {
		s.Prepare(cands)
	}
	vlen := width * s.PerCand
	// Worker w's window starts at w·stride. Grouped fabrics invoke the
	// local callbacks serially, so one window (stride 0) serves every
	// worker there.
	windows, stride := f.Workers(), vlen
	if _, grouped := f.(fabric.Grouped); grouped {
		windows, stride = 1, 0
	}
	slab := ws.workerVals(windows, vlen)
	totals, err := ws.agg.AggregateVec(f, pairWords, vlen, func(w int) []int64 {
		vals := slab[w*stride : w*stride+vlen]
		clear(vals)
		local(w, cands, vals)
		return vals
	})
	if err != nil {
		return nil, nil, fmt.Errorf("derand: aggregate batch %d: %w", batch, err)
	}
	return cands, totals, nil
}

// announce broadcasts the winning index from worker 0 and returns the
// winner with owned coefficients.
func (s *VecSelector) announce(f fabric.Fabric, pairWords int, ws *Workspace, idx uint64, totals []int64, st Stats) (Result, error) {
	ws.word[0] = idx
	if err := ws.agg.Broadcast(f, pairWords, 0, ws.word[:]); err != nil {
		return Result{}, fmt.Errorf("derand: broadcast winner: %w", err)
	}
	return Result{Pair: materialize(s.F1, s.F2, idx), Totals: totals, Stats: st}, nil
}
