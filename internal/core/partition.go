package core

import (
	"fmt"
	"math"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// partition implements Algorithm 2 (Partition) plus the derandomized hash
// selection of §3.3 for one call X:
//
//  1. Deterministically select (h₁, h₂) with cost 𝔮 ≤ ⌊𝔫/ℓ²⌋ (Lemma 3.9)
//     via the batched conditional-expectations engine.
//  2. Classify nodes good/bad (Definition 3.1) and announce badness to
//     in-call neighbors (one round).
//  3. Build the B−1 parallel color-bin children (palettes restricted by
//     h₂), the gated bin-B child, and the bad-node graph G0.
func (s *solver) partition(x *call) error {
	nX := len(x.nodes)
	ds := s.trace.depth(x.depth)
	ds.Partitions++

	if err := s.auditCall(x, s.dx); err != nil {
		return err
	}
	bs, err := s.newBatchScorer(x)
	if err != nil {
		return err
	}
	b, id := bs.b, bs.id

	sel := &derand.VecSelector{
		F1:         bs.f1,
		F2:         bs.f2,
		PerCand:    bs.perCand(),
		BatchWidth: s.p.BatchWidth,
		MaxBatches: s.p.MaxBatches,
		Salt:       uint64(x.id) * 0x9e3779b9,
		WS:         &s.wsp.sel,
		Prepare:    bs.prepare,
	}
	binThresh := 2*float64(nX)/float64(b) + math.Pow(float64(s.bign), s.p.BinSizeSlackExp)
	score := func(totals []int64) int64 {
		q := totals[0]
		for bin := 0; bin < b; bin++ {
			if float64(totals[1+bin]) >= binThresh {
				q += int64(s.bign)
			}
		}
		return q
	}
	target := s.p.target(s.bign, x.ell)
	ds.BadBound += target
	if s.p.AcceptFirstSeed {
		target = 1<<62 - 1 // ablation A1: candidate 0 always wins
	}
	s.fab.Ledger().SetPhase("partition:select")
	res, err := sel.Select(s.fab, s.pw, target, func(wk int, cands []derand.Pair, out []int64) {
		if s.callOf[wk] == id {
			bs.classify(int32(wk), cands, out)
		}
	}, score)
	if err != nil {
		return err
	}
	ds.SeedCandidates += res.Stats.Candidates
	ds.SeedBatches += res.Stats.Batches
	for bin := 0; bin < b; bin++ {
		if float64(res.Totals[1+bin]) >= binThresh {
			ds.BadBins++ // must stay 0: the target < 𝔫 forbids bad bins
		}
	}

	// Final classification with the selected pair: the same kernel on a
	// one-candidate batch (the batch tables are stale by now), run on the
	// pool. Each node writes its verdict into its own slot of the verdict
	// slab; a serial pass in node order then fills G0 and the bins, so the
	// children's node order, and with it their call ids and seed salts, is
	// the serial classification's.
	h2 := res.Pair.H2
	bs.prepare([]derand.Pair{res.Pair})
	s.wsp.verdict = graph.Grow(s.wsp.verdict, s.bign)
	verdict := s.wsp.verdict
	s.wsp.pool.Run(nX, func(j int) {
		if v := x.nodes[j]; s.callOf[v] == id {
			verdict[v] = bs.classifyOne(v, h2)
		}
	})
	binNodes := make([][]int32, b) // bins 0..b-2 are color bins; b-1 is bin B
	var g0Nodes []int32
	for _, v := range x.nodes {
		if s.callOf[v] != id {
			continue
		}
		if bin := verdict[v] >> 1; verdict[v]&1 != 0 {
			g0Nodes = append(g0Nodes, v)
		} else {
			binNodes[bin] = append(binNodes[bin], v)
		}
	}
	ds.BadNodes += len(g0Nodes)

	// Announce badness and bin to in-call neighbors (one round, one word
	// per pair) so every node knows its neighbors' destinations: one fan
	// frame per node.
	s.fab.Ledger().SetPhase("partition:announce")
	if err := fabric.SendFrames(s.fab, func(wk int, sb *fabric.SendBuf) {
		v := int32(wk)
		if s.callOf[v] != id {
			return
		}
		nbrs := s.g.Neighbors(v)
		word, dests := sb.BeginFan(len(nbrs), 1)
		word[0] = uint64(verdict[v]>>1) | uint64(verdict[v]&1)<<32
		// Every neighbor is written and only in-call ones are kept: a
		// conditional increment in place of a hard-to-predict branch.
		k := 0
		for _, u := range nbrs {
			dests[k] = u
			if s.callOf[u] == id {
				k++
			}
		}
		sb.CommitFan(k)
	}); err != nil {
		return fmt.Errorf("announce round: %w", err)
	}

	childEll := s.p.childEll(x.ell)

	// G0 container is created first (possibly empty) so safety demotions
	// always have a destination.
	x.g0 = s.newCallAllowEmpty(roleG0, g0Nodes, childEll, x.depth+1, x)

	// Phase-1 children: demote under-paletted nodes w.r.t. the h₂
	// restriction *before* materializing it, then restrict survivors.
	x.phase1Left = 0
	for bin := 0; bin < b-1; bin++ {
		mask := bs.mask(0, bin)
		nodes := s.demoteForRestriction(x, binNodes[bin], h2, int64(bin), mask)
		if len(nodes) == 0 {
			continue
		}
		for _, v := range nodes {
			if mask != nil {
				s.palRestrictMask(v, mask)
			} else {
				s.palRestrict(v, h2, int64(bin))
			}
		}
		child := s.newCall(rolePhase1, nodes, childEll, x.depth+1, x)
		x.phase1Left++
		s.runnable = append(s.runnable, child)
	}

	// Bin B child: gated until all phase-1 subtrees complete.
	x.binB = s.newCall(roleBinB, binNodes[b-1], childEll, x.depth+1, x)
	x.partitions = true

	if x.phase1Left == 0 {
		s.launchBinB(x)
	}
	return nil
}

// batchScorer evaluates Definition 3.1 for one Partition call against
// batches of candidate pairs. The hash evaluations behind it are shared, not
// repeated: prepare tabulates h₁ over the call's nodes into a node-major
// seedTable (every candidate's bin side by side in one row) and h₂ over the
// union of the live palettes (as packed color-bin masks over the dense
// domain). classify then scores a node under the whole batch with one
// branch-free walk over its neighbours, plus table lookups and one
// popcount-AND per candidate, instead of O(d(v) + p(v)) polynomial
// evaluations per candidate.
type batchScorer struct {
	s      *solver
	nodes  []int32
	id     int32
	b      int
	f1, f2 hashing.Family
	tab    seedTable

	degSlack, palSlack float64 // ℓ^0.6 and ℓ^0.7 of Definition 3.1

	// Packed mode masks: each candidate's (b−1) color-bin masks, w words
	// each, built over the live palette union. maskStride is 0 when there
	// are no masks (compact mode, or the near-disjoint gate below), and
	// classify counts p′(v) through h₂ instead.
	union      graph.PaletteSet
	w          int
	maskStride int
}

func (s *solver) newBatchScorer(x *call) (*batchScorer, error) {
	b := s.p.bins(x.ell)
	f1, err := hashing.NewFamily(s.p.Independence, int64(s.bign), int64(b), 24)
	if err != nil {
		return nil, fmt.Errorf("node hash family: %w", err)
	}
	f2, err := hashing.NewFamily(s.p.Independence, s.colorDomain, int64(b-1), 24)
	if err != nil {
		return nil, fmt.Errorf("color hash family: %w", err)
	}
	bs := &batchScorer{
		s: s, nodes: x.nodes, id: int32(x.id), b: b, f1: f1, f2: f2, tab: newSeedTable(b),
		degSlack: s.p.degSlack(x.ell), palSlack: s.p.palSlack(x.ell),
	}
	if s.p.CompactPalettes {
		return bs, nil
	}

	// The union of live palettes bounds the colors any mask needs; h₂ is
	// evaluated once per distinct live color per candidate instead of once
	// per (node, palette entry). That trade only pays when palettes overlap
	// (range instances: |union| ≪ Σp(v)); on list instances with mostly
	// disjoint palettes the union is nearly as large as Σp(v) and the table
	// build costs more than direct counting, so the masks are skipped and
	// classify falls back to per-node palCountBin. Either strategy computes
	// the same counts — this is a cost choice, not a behavior change.
	wsp := s.wsp
	w := s.dom.words
	if cap(wsp.palUnion) < w {
		wsp.palUnion = make([]uint64, w)
	}
	bs.union = graph.PaletteSet(wsp.palUnion[:w])
	bs.union.Clear()
	sumPal := 0
	for _, v := range x.nodes {
		if s.callOf[v] == bs.id {
			s.pal[v].unionInto(bs.union)
			sumPal += s.pal[v].size
		}
	}
	if 2*bs.union.Len() <= sumPal {
		bs.w, bs.maskStride = w, (b-1)*w
	}
	return bs, nil
}

// perCand is the length of one candidate's vector: [bad, one-hot bin…].
func (bs *batchScorer) perCand() int { return 1 + bs.b }

// prepare tabulates a batch: node rows in parallel over the call's nodes
// (each row is one task's), then the per-candidate color masks in parallel
// over candidates (each mask slot is one task's). Both read only immutable
// inputs: palettes, stamps, hash coefficients.
func (bs *batchScorer) prepare(cands []derand.Pair) {
	wsp := bs.s.wsp
	if wsp.pool == nil {
		wsp.pool = fabric.NewWorkPool(0)
	}
	bs.tab.reset(&wsp.candTab, bs.s.bign, len(cands))
	wsp.pool.Run(len(bs.nodes), func(j int) { bs.tab.fillRow(bs.nodes[j], cands) })
	if bs.maskStride == 0 {
		return
	}
	wsp.candMasks = graph.Grow(wsp.candMasks, len(cands)*bs.maskStride)
	dom := bs.s.dom.colors
	wsp.pool.RunHeavy(len(cands), func(i int) {
		masks := wsp.candMasks[i*bs.maskStride : (i+1)*bs.maskStride]
		clear(masks)
		h2 := cands[i].H2
		bs.union.ForEach(func(c int) bool {
			bin := int(h2.Eval(dom[c]))
			graph.PaletteSet(masks[bin*bs.w : (bin+1)*bs.w]).Add(c)
			return true
		})
	})
}

// mask returns candidate i's packed color mask for a color bin, or nil
// when the batch has no masks.
func (bs *batchScorer) mask(i, bin int) graph.PaletteSet {
	if bs.maskStride == 0 {
		return nil
	}
	off := i*bs.maskStride + bin*bs.w
	return graph.PaletteSet(bs.s.wsp.candMasks[off : off+bs.w])
}

// classify evaluates Definition 3.1 for live node v under every candidate
// of the prepared batch, writing candidate i's [bad, one-hot bin…] into
// out[i·perCand : (i+1)·perCand], which arrives zeroed. It runs
// concurrently for distinct nodes and writes nothing shared.
func (bs *batchScorer) classify(v int32, cands []derand.Pair, out []int64) {
	perCand := bs.perCand()
	// The neighbour walk leaves each candidate's d′(v) in its bad slot,
	// which the verdict then overwrites.
	bs.tab.addSameBin(v, bs.s.g.Neighbors(v), bs.s.callOf, bs.id, out, perCand)
	for i := range cands {
		vec := out[i*perCand : (i+1)*perCand]
		verdict := bs.verdict(v, i, cands[i].H2, vec[0])
		vec[0] = int64(verdict & 1)
		vec[1+verdict>>1] = 1
	}
}

// classifyOne is classify on a one-candidate batch, returning v's verdict
// instead of writing a vector. Like classify, it runs concurrently for
// distinct nodes.
func (bs *batchScorer) classifyOne(v int32, h2 hashing.Hash) int32 {
	var dPrime [1]int64
	bs.tab.addSameBin(v, bs.s.g.Neighbors(v), bs.s.callOf, bs.id, dPrime[:], 1)
	return bs.verdict(v, 0, h2, dPrime[0])
}

// verdict decides Definition 3.1 for v under candidate i of the batch,
// whose color hash is h2, given v's same-bin degree d′(v). It returns v's
// bin shifted left by one, with the low bit set when v is bad.
func (bs *batchScorer) verdict(v int32, i int, h2 hashing.Hash, dPrime int64) int32 {
	s, b := bs.s, bs.b
	myBin := bs.tab.bin(v, i)
	bad := math.Abs(float64(dPrime)-float64(s.dx[v])/float64(b)) > bs.degSlack
	if !bad && myBin < b-1 {
		var pPrime int
		if mask := bs.mask(i, myBin); mask != nil {
			pPrime = s.palCountMask(v, mask)
		} else {
			pPrime = s.palCountBin(v, h2, int64(myBin))
		}
		// Palette goodness (Def. 3.1): p′(v) ≥ p(v)/B + ℓ^0.7. The
		// slack is capped at half the splitting gap
		// p(v)·(1/(B−1) − 1/B); with B = ⌊ℓ^0.1⌋ and p(v) > ℓ the gap
		// is ≥ ℓ^0.8 ≫ ℓ^0.7, so in the paper's regime the cap is
		// inactive and the condition is the paper's verbatim. Outside
		// it (small ℓ, forced wide bins) the capped condition is the
		// one the Lemma 3.6 argument actually supports.
		p := float64(s.palSize(v))
		slack := bs.palSlack
		if gap := p / (2 * float64(b) * float64(b-1)); gap < slack {
			slack = gap
		}
		bad = float64(pPrime) < p/float64(b)+slack
	}
	if bad {
		return int32(myBin)<<1 | 1
	}
	return int32(myBin) << 1
}

// newCallAllowEmpty registers a call even with no nodes (used for G0
// containers, which may gain nodes later via demotion).
func (s *solver) newCallAllowEmpty(role callRole, nodes []int32, ell float64, depth int, parent *call) *call {
	c := &call{id: s.nextID, role: role, nodes: nodes, ell: ell, depth: depth, parent: parent}
	s.nextID++
	s.calls[c.id] = c
	for _, v := range nodes {
		s.callOf[v] = int32(c.id)
	}
	return c
}

// binStamp is the callOf value a color bin's prospective members carry
// while demoteForRestriction filters them. No call carries it (call ids
// count up from 0 and colored nodes carry −1), so degreeIn(v, binStamp)
// is v's degree within the bin.
const binStamp int32 = -2

// demoteForRestriction filters a prospective color-bin child: any node
// whose restricted palette would not strictly exceed its degree within the
// child moves to G0 instead (runtime safety net; ExtraBad in the trace).
// One pass decides every node against the whole bin: a removal only lowers
// the kept nodes' degrees, so no second pass could demote more. mask, when
// non-nil, is the winner's packed color mask for this bin; compact mode
// passes nil and falls back to per-color h₂ evaluation. The kept nodes,
// compacted into nodes, still carry binStamp for the caller to replace.
func (s *solver) demoteForRestriction(x *call, nodes []int32, h2 hashing.Hash, bin int64, mask graph.PaletteSet) []int32 {
	for _, v := range nodes {
		s.callOf[v] = binStamp
	}
	g0, start := x.g0, len(x.g0.nodes)
	for _, v := range nodes {
		var pPrime int
		if mask != nil {
			pPrime = s.palCountMask(v, mask)
		} else {
			pPrime = s.palCountBin(v, h2, bin)
		}
		if pPrime <= int(s.degreeIn(v, binStamp)) {
			g0.nodes = append(g0.nodes, v)
		}
	}
	if demoted := g0.nodes[start:]; len(demoted) > 0 {
		s.trace.depth(x.depth + 1).ExtraBad += len(demoted)
		for _, v := range demoted {
			s.callOf[v] = int32(g0.id)
		}
	}
	kept := nodes[:0]
	for _, v := range nodes {
		if s.callOf[v] == binStamp {
			kept = append(kept, v)
		}
	}
	return kept
}

// auditCall checks the Corollary 3.3 premises on a Partition input and
// records outcomes. (iii) d(v) < p(v) is load-bearing for correctness and
// is a hard error; (i) and (ii) are recorded (they can miss at laptop-scale
// constants without affecting correctness). dx is indexed by node id and
// valid for the call's nodes.
func (s *solver) auditCall(x *call, dx []int32) error {
	a := &s.trace.Audit
	slack := x.ell + s.p.palSlack(x.ell)
	for _, v := range x.nodes {
		if s.color[v] != graph.NoColor {
			continue
		}
		a.Checked++
		p := s.palSize(v)
		d := int(dx[v])
		if !(x.ell < float64(p)) {
			a.EllBelowPalette++
		}
		if float64(d) > slack {
			a.DegreeAboveEll++
		}
		if d >= p {
			a.PaletteNotAboveDeg++
			return fmt.Errorf("invariant violation: node %d has d=%d ≥ p=%d", v, d, p)
		}
	}
	return nil
}
