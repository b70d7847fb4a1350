package lowspace

import (
	"fmt"
	"math"

	"ccolor/internal/derand"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// partition implements LowSpacePartition (Algorithm 4) for the high-degree
// nodes of one call: chunk the neighbor lists and palettes (the M_v^N /
// M_v^C machine sets), select (h₁, h₂) with zero — or, failing that at
// finite scale, minimal — bad chunk machines (Definition 4.1, Lemma 4.5),
// classify, and restrict palettes of bins 1..B−1.
//
// Returns the node sets of bins 1..B (index B−1 is the gated bin B) and the
// demoted (bad) nodes, plus the rounds this phase cost. Set membership is
// stamp-based and the filtered in-call neighbor lists live in the solver's
// CSR scratch — no per-call maps or per-node list allocations.
func (s *solver) partition(high []int32, depth int) ([][]int32, []int32, int, error) {
	b := s.bins
	// Stamp the high set; idxOf maps node → high-local CSR index. The
	// enclosing call's stamp is only read before partition runs, so
	// re-stamping here is safe.
	s.curStamp++
	inHigh := s.curStamp
	for i, v := range high {
		s.stamp[v] = inHigh
		s.idxOf[v] = int32(i)
	}
	// Live in-call neighbor lists (original IDs), CSR over high indices.
	ws := &s.ws
	off := graph.Grow(ws.off, len(high)+1)
	flatBuf := ws.adjFlat[:0]
	off[0] = 0
	for i, v := range high {
		for _, u := range s.adj[v] {
			if s.stamp[u] == inHigh {
				flatBuf = append(flatBuf, u)
			}
		}
		off[i+1] = int32(len(flatBuf))
	}
	ws.off, ws.adjFlat = off, flatBuf
	flat := flatBuf
	filt := func(v int32) []int32 {
		i := s.idxOf[v]
		return flat[off[i]:off[i+1]]
	}
	// spanScratch backs chunksOf across calls: the derand local callback
	// runs serially on grouped fabrics (the only fabric lowspace uses), so
	// one scratch per partition call is race-free.
	var spanScratch [][2]int
	chunksOf := func(total int) [][2]int {
		// Split [0,total) into pieces of size in [τ, 2τ] (possible since
		// total > τ); a final short remainder merges into its predecessor.
		spans := spanScratch[:0]
		for lo := 0; lo < total; {
			hi := lo + s.tau
			if hi > total {
				hi = total
			}
			if total-hi < s.tau && total-hi > 0 {
				hi = total
			}
			spans = append(spans, [2]int{lo, hi})
			lo = hi
		}
		spanScratch = spans
		return spans
	}

	f1, err := hashing.NewFamily(s.p.Independence, int64(s.n), int64(b), 24)
	if err != nil {
		return nil, nil, 0, err
	}
	f2, err := hashing.NewFamily(s.p.Independence, s.colorDomain, int64(b-1), 24)
	if err != nil {
		return nil, nil, 0, err
	}

	// The cost callback reads the candidate hashes only through per-batch
	// bin tables (VecSelector.Prepare): node→bin over the high set always, and
	// color→bin over the dense color domain when it is small enough that
	// tabulating beats rescanning (list instances draw colors from a
	// universe far larger than Σ|pal|, so they keep per-color evaluation).
	// This turns the selection cost from Σ_v(deg(v)+|pal(v)|) hash
	// evaluations per candidate — each neighbor re-evaluated once per
	// occurrence — into |high| (+ colorDomain) evaluations plus array reads.
	ctw := 0
	if s.colorDomain <= maxColorTableDomain {
		ctw = int(s.colorDomain)
	}

	// badChunks counts Definition 4.1 violations across one node's chunk
	// machines for one candidate's tables. cb == nil means no color table;
	// palette chunks then evaluate h2 directly.
	badChunks := func(v int32, nb []int32, cb []int32, h2 hashing.Hash) int64 {
		myBin := int64(nb[s.idxOf[v]])
		var bad int64
		nl := filt(v)
		for _, sp := range chunksOf(len(nl)) {
			dx := float64(sp[1] - sp[0])
			dPrime := 0
			for _, u := range nl[sp[0]:sp[1]] {
				if int64(nb[s.idxOf[u]]) == myBin {
					dPrime++
				}
			}
			if math.Abs(float64(dPrime)-dx/float64(b)) > math.Pow(dx, s.p.DegSlackExp) {
				bad++
			}
		}
		if myBin < int64(b-1) {
			pal := s.pal[v]
			for _, sp := range chunksOf(len(pal)) {
				px := float64(sp[1] - sp[0])
				pPrime := 0
				if cb != nil {
					for _, c := range pal[sp[0]:sp[1]] {
						if int64(cb[c]) == myBin {
							pPrime++
						}
					}
				} else {
					for _, c := range pal[sp[0]:sp[1]] {
						if h2.Eval(int64(c)) == myBin {
							pPrime++
						}
					}
				}
				if float64(pPrime) <= px/float64(b)+math.Pow(px, s.p.PalSlackExp) {
					bad++
				}
			}
		}
		return bad
	}

	// fillTables writes one candidate's bin tables into the given slices.
	fillTables := func(h1, h2 hashing.Hash, nb, cb []int32) {
		for j, v := range high {
			nb[j] = int32(h1.Eval(int64(v)))
		}
		for c := range cb {
			cb[c] = int32(h2.Eval(int64(c)))
		}
	}

	sel := &derand.VecSelector{
		F1:         f1,
		F2:         f2,
		PerCand:    1,
		BatchWidth: s.p.BatchWidth,
		MaxBatches: s.p.MaxBatches,
		Salt:       uint64(depth)*0x9e3779b9 + uint64(len(high)),
		WS:         &s.sel,
		Prepare: func(cands []derand.Pair) {
			ws.nodeBins = graph.Grow(ws.nodeBins, len(cands)*len(high))
			ws.colorBins = graph.Grow(ws.colorBins, len(cands)*ctw)
			for i, pr := range cands {
				fillTables(pr.H1, pr.H2,
					ws.nodeBins[i*len(high):(i+1)*len(high)],
					ws.colorBins[i*ctw:(i+1)*ctw])
			}
		},
	}
	before := s.cluster.Ledger().Rounds()
	s.cluster.Ledger().SetPhase("lowspace:select")
	// Lemma 4.4: E[bad machines] < 1, so a bad-machine-free candidate
	// exists in expectation. At finite scale chunk concentration is loose,
	// so we take the deterministic argmin over a fixed candidate budget and
	// demote nodes whose chunks still misbehave (measured as BadNodes).
	res, err := sel.SelectMin(s.cluster, pairWords, 2, func(w int, cands []derand.Pair, out []int64) {
		v := int32(w)
		if s.stamp[v] != inHigh {
			return
		}
		for i, pr := range cands {
			var cb []int32
			if ctw > 0 {
				cb = ws.colorBins[i*ctw : (i+1)*ctw]
			}
			out[i] = badChunks(v, ws.nodeBins[i*len(high):(i+1)*len(high)], cb, pr.H2)
		}
	}, derand.Total)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("lowspace: seed selection at depth %d: %w", depth, err)
	}
	pair := res.Pair
	s.trace.SeedCandidates += res.Stats.Candidates

	// Classify: any bad chunk machine, or a restricted palette that would
	// not strictly exceed the in-bin degree, demotes the node to the pool.
	// The winner's tables are rebuilt once and reused by classification,
	// announce, and restriction below.
	h2 := pair.H2
	ws.nodeBins = graph.Grow(ws.nodeBins, len(high))
	ws.colorBins = graph.Grow(ws.colorBins, ctw)
	nbWin, cbWin := ws.nodeBins, ws.colorBins
	fillTables(pair.H1, h2, nbWin, cbWin)
	if ctw == 0 {
		cbWin = nil
	}
	binsOf := make([][]int32, b)
	var bad []int32
	for i, v := range high {
		myBin := int64(nbWin[i])
		if badChunks(v, nbWin, cbWin, h2) > 0 {
			bad = append(bad, v)
			continue
		}
		dPrime := 0
		for _, u := range filt(v) {
			if int64(nbWin[s.idxOf[u]]) == myBin {
				dPrime++
			}
		}
		if myBin < int64(b-1) {
			pPrime := 0
			if cbWin != nil {
				for _, c := range s.pal[v] {
					if int64(cbWin[c]) == myBin {
						pPrime++
					}
				}
			} else {
				for _, c := range s.pal[v] {
					if h2.Eval(int64(c)) == myBin {
						pPrime++
					}
				}
			}
			if pPrime <= dPrime {
				bad = append(bad, v)
				continue
			}
		}
		binsOf[myBin] = append(binsOf[myBin], v)
	}

	// Announce bins (space-bounded multicast): nodes tell live in-call
	// neighbors their destination so chunk machines can filter.
	announce := ws.pairs[:0]
	for i, v := range high {
		word := uint64(nbWin[i] + 1)
		for _, u := range filt(v) {
			announce = append(announce, msgPair{from: v, to: u, word: word})
		}
	}
	ws.pairs = announce
	if err := s.spacedMulticast("lowspace:announce", announce); err != nil {
		return nil, nil, 0, err
	}

	// Restrict palettes of color-receiving bins (machine-local). The
	// palettes are solver-owned, so the sorted prune filters in place.
	for bin := 0; bin < b-1; bin++ {
		for _, v := range binsOf[bin] {
			kept := s.pal[v][:0]
			if cbWin != nil {
				for _, c := range s.pal[v] {
					if int64(cbWin[c]) == int64(bin) {
						kept = append(kept, c)
					}
				}
			} else {
				for _, c := range s.pal[v] {
					if h2.Eval(int64(c)) == int64(bin) {
						kept = append(kept, c)
					}
				}
			}
			s.pal[v] = kept
		}
	}
	return binsOf, bad, s.cluster.Ledger().Rounds() - before, nil
}

// pairWords is the control-message width used on the MPC fabric; MPC does
// not bound per-pair traffic, only per-machine space, so this only shapes
// the aggregation vector layout.
const pairWords = 8

// maxColorTableDomain bounds the dense color→bin tabulation in partition:
// beyond this the per-candidate table fill would dwarf the palette scans
// it replaces (deg+1 list instances draw colors from a universe far larger
// than the total palette mass of one call).
const maxColorTableDomain = 1 << 13
