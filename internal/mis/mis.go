// Package mis is the maximal-independent-set substrate the paper's
// low-space MPC result relies on (§4.1): the Luby reduction from
// (deg+1)-list coloring to MIS, and a deterministic fabric-based MIS
// algorithm whose per-phase randomness is a c-wise independent seed fixed
// by the same derandomization engine as the coloring algorithm. It stands
// in for the Czumaj–Davies–Parter SPAA'20 algorithm [7]: it exposes the
// same interface and a measured round envelope the Theorem 1.4 experiment
// fits against.
//
// Each phase scores a batch of seed candidates through one per-batch
// priority table (tabulate): every live node's priority is evaluated once
// per candidate, each clique block's (priority, id) minimum is found once
// per candidate, and only that minimum is checked against its conflict
// edges. The per-worker cost callback then reads its node's packed join
// bits, and the winner's joiners are the table's column for it.
package mis

import (
	"fmt"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// Stats reports a distributed MIS run.
type Stats struct {
	Phases         int
	SeedCandidates int
	SeedBatches    int
}

// Params configures the deterministic fabric MIS.
type Params struct {
	Independence int // c of the hash family (default 8)
	BatchWidth   int
	MaxBatches   int
	Salt         uint64
}

// DefaultParams returns the standard configuration.
func DefaultParams() Params {
	return Params{Independence: 8, BatchWidth: 8, MaxBatches: 256}
}

// topology abstracts the adjacency structure solveDet runs over. Neighbors
// come in two parts: an implicit clique block [lo, hi) of consecutive node
// IDs containing v (empty for plain graphs), and an explicit list. The
// split is what lets the §4.1 reduction skip materializing its O(p(v)²)
// clique edges.
type topology interface {
	N() int
	CliqueBlock(v int32) (lo, hi int32)
	Conflicts(v int32) []int32
}

// graphTopo adapts an explicit graph: no implicit block, all edges listed.
type graphTopo struct{ g *graph.Graph }

func (t graphTopo) N() int                             { return t.g.N() }
func (t graphTopo) CliqueBlock(v int32) (lo, hi int32) { return v, v }
func (t graphTopo) Conflicts(v int32) []int32          { return t.g.Neighbors(v) }

// Workspace holds reusable solveDet scratch so repeated solves (the
// low-space pool path runs one MIS per pool) allocate nothing in steady
// state. The zero value is ready for use.
type Workspace struct {
	in, live, joined []bool
	deg              []int64          // per live node: its live degree this phase
	table                             // the phase's per-batch priority table
	sel              derand.Workspace // phase seed selection buffers
}

// table is one batch's priority table. prio is node-major: node v's row
// prio[v·width : (v+1)·width] holds h_i(v) for every candidate i of the
// batch. joins packs, per node, one bit per candidate: bit i of v's row
// (stride words) is set iff v joins the MIS under candidate i. The prio
// rows of nodes that are not live are stale and never read; their join
// rows are zero.
type table struct {
	prio   []int64
	joins  []uint64
	best   []int32 // per candidate: the current block's argmin
	bestP  []int64 // per candidate: the argmin's priority
	base   uint64  // Pair.Index of the batch's first candidate
	width  int     // candidates in the batch
	stride int     // join words per node
}

// joined reports whether v joins under candidate i of the tabulated batch.
func (tb *table) joined(v, i int) bool {
	return tb.joins[v*tb.stride+i>>6]>>(i&63)&1 != 0
}

// MemoryWords reports the workspace's retained footprint in 64-bit words —
// the flags, the degrees, the priority table (n·BatchWidth words at the
// largest pool seen), the join bits and the selection buffers — at their
// capacities.
func (ws *Workspace) MemoryWords() int64 {
	words := int64(cap(ws.deg) + cap(ws.prio) + cap(ws.joins) + cap(ws.bestP))
	words += int64(cap(ws.in)+cap(ws.live)+cap(ws.joined)) / 8
	words += int64(cap(ws.best)) / 2
	return words + ws.sel.MemoryWords()
}

// blockEnd returns the end of the clique block that starts at lo. Plain
// graph topologies report empty blocks; each node is then its own block.
func blockEnd[T topology](t T, lo int) int {
	_, hi := t.CliqueBlock(int32(lo))
	return max(int(hi), lo+1)
}

// liveDegrees sets deg[x] for every live node x to its live degree: its
// block's live count less one, plus its live conflicts. It does not depend
// on the phase's hash, so one pass per phase serves every candidate.
func liveDegrees[T topology](t T, live []bool, deg []int64) {
	for lo, n := 0, t.N(); lo < n; {
		hi := blockEnd(t, lo)
		c := int64(0)
		for u := lo; u < hi; u++ {
			if live[u] {
				c++
			}
		}
		for x := lo; x < hi; x++ {
			if !live[x] {
				continue
			}
			d := c - 1
			for _, u := range t.Conflicts(int32(x)) {
				if live[u] {
					d++
				}
			}
			deg[x] = d
		}
		lo = hi
	}
}

// tabulate fills tb for the batch cands. A live node v joins under
// candidate h iff (h(v), v) is below (h(u), u) for every live neighbour u:
// within v's clique block that means v is the block's (priority, id)
// argmin, so each block's argmin is found once per candidate, and only it
// is compared against its live conflicts. Priorities are evaluated once
// per live node and candidate, n·B evaluations per batch.
func tabulate[T topology](t T, live []bool, tb *table, cands []derand.Pair) {
	n, b := t.N(), len(cands)
	stride := (b + 63) / 64
	tb.base, tb.width, tb.stride = cands[0].Index, b, stride
	tb.prio = graph.Grow(tb.prio, n*b)
	tb.joins = graph.Grow(tb.joins, n*stride)
	tb.best = graph.Grow(tb.best, b)
	tb.bestP = graph.Grow(tb.bestP, b)
	prio, joins, best, bestP := tb.prio, tb.joins, tb.best, tb.bestP
	clear(joins)
	for v := 0; v < n; v++ {
		if !live[v] {
			continue
		}
		row := prio[v*b : (v+1)*b]
		for i := range row {
			row[i] = cands[i].H1.Eval(int64(v))
		}
	}
	for lo := 0; lo < n; {
		hi := blockEnd(t, lo)
		// The block's (priority, id) argmin under every candidate. Members
		// ascend, so only a strictly smaller priority replaces the best.
		found := false
		for u := lo; u < hi; u++ {
			if !live[u] {
				continue
			}
			row := prio[u*b : (u+1)*b]
			if !found {
				copy(bestP, row)
				for i := range best {
					best[i] = int32(u)
				}
				found = true
				continue
			}
			for i, p := range row {
				if p < bestP[i] {
					bestP[i], best[i] = p, int32(u)
				}
			}
		}
		if found {
			for i, x := range best {
				joins[int(x)*stride+i>>6] |= 1 << (i & 63)
			}
			for x := lo; x < hi; x++ {
				jrow := joins[x*stride : (x+1)*stride]
				if !anySet(jrow) {
					continue // not a live argmin under any candidate
				}
				px := prio[x*b : (x+1)*b]
				for _, u := range t.Conflicts(int32(x)) {
					if live[u] && !clearBeaten(jrow, px, prio[int(u)*b:(int(u)+1)*b], int(u) < x) {
						break // x joins under no candidate
					}
				}
			}
		}
		lo = hi
	}
}

// clearBeaten clears in x's join row the bit of every candidate under
// which the conflict u ranks below x — a smaller priority, or an equal one
// and the smaller id (uFirst) — and reports whether any bit is left.
// Priorities lie in [0, Range), far below 2⁶², so pu − px − [uFirst] is
// negative exactly when u ranks below x, and its sign bit is the
// candidate's mask bit: no branch on the data.
func clearBeaten(row []uint64, px, pu []int64, uFirst bool) bool {
	var tie int64
	if uFirst {
		tie = 1
	}
	pu = pu[:len(px)]
	var left uint64
	for w := range row {
		var m uint64
		for i := w * 64; i < min((w+1)*64, len(px)); i++ {
			m |= uint64(pu[i]-px[i]-tie) >> 63 << (i & 63)
		}
		row[w] &^= m
		left |= row[w]
	}
	return left != 0
}

func anySet(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return true
		}
	}
	return false
}

// SolveDetSubset computes an MIS deterministically over the fabric (one
// virtual worker per node), restricted to the nodes with active[v] true.
// Each phase draws priorities from a c-wise independent hash; a node joins
// when its priority is a strict minimum among live neighbors (ties broken
// by ID). The phase seed is selected by batched derandomization against
// the potential Σ_{v joins}(d_live(v)+1), with a geometrically relaxed
// target so a productive seed always exists; the selected seed's realized
// progress is what the round envelope experiment measures.
//
// Inactive nodes never participate, and the returned set is a maximal
// independent set of the induced subgraph on the active nodes. The fabric
// still has one worker per node of the full topology. active may be nil
// (all nodes active); ws may be nil. When ws is non-nil the returned set
// aliases it (valid until the next solve on the same workspace).
func SolveDetSubset(f fabric.Fabric, pairWords int, g *graph.Graph, active []bool, p Params, ws *Workspace) ([]bool, Stats, error) {
	return solveDet(f, pairWords, graphTopo{g}, active, p, ws)
}

// SolveDetReduction runs the same algorithm over a Reduction's implicit
// topology: clique siblings are iterated via the contiguous block
// [first[v], first[v+1]) and only conflict edges are read from memory. ws
// may be nil; when non-nil its scratch backs the run and the returned set
// aliases it (valid until the next solve on the same workspace).
func SolveDetReduction(f fabric.Fabric, pairWords int, r *Reduction, p Params, ws *Workspace) ([]bool, Stats, error) {
	return solveDet(f, pairWords, r, nil, p, ws)
}

// phaseSelector returns one phase's seed search over t. Each phase's seed
// is the deterministic argmin of the negated potential −Σ_{v joins}
// (d_live(v)+1) over a fixed candidate budget: Prepare tabulates the batch
// into ws's table, and a live node contributes −(d_live+1), read from
// ws.deg, to every candidate it joins under. Some node always holds the
// globally minimal priority, so every candidate makes progress; the argmin
// maximizes it. The caller sets Salt per phase.
func phaseSelector[T topology](t T, live []bool, ws *Workspace, prio hashing.Family, p Params) (*derand.VecSelector, derand.LocalVec) {
	tb := &ws.table
	sel := &derand.VecSelector{
		F1:         prio,
		F2:         prio, // unused second slot; same family keeps seeds aligned
		PerCand:    1,
		BatchWidth: p.BatchWidth,
		MaxBatches: p.MaxBatches,
		WS:         &ws.sel,
		Prepare:    func(cands []derand.Pair) { tabulate(t, live, tb, cands) },
	}
	local := func(w int, cands []derand.Pair, out []int64) {
		if !live[w] {
			return
		}
		for i := range out {
			if tb.joined(w, i) {
				out[i] = -(ws.deg[w] + 1)
			}
		}
	}
	return sel, local
}

func solveDet[T topology](f fabric.Fabric, pairWords int, t T, active []bool, p Params, ws *Workspace) ([]bool, Stats, error) {
	n := t.N()
	if f.Workers() != n {
		return nil, Stats{}, fmt.Errorf("mis: fabric has %d workers for %d nodes", f.Workers(), n)
	}
	if active != nil && len(active) != n {
		return nil, Stats{}, fmt.Errorf("mis: active mask has %d entries for %d nodes", len(active), n)
	}
	if p.Independence == 0 {
		p = DefaultParams()
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.in = graph.Grow(ws.in, n)
	ws.live = graph.Grow(ws.live, n)
	ws.joined = graph.Grow(ws.joined, n)
	in, live, joined := ws.in, ws.live, ws.joined
	clear(in)
	clear(live)
	clear(joined)
	liveCount := 0
	for v := range live {
		if active != nil && !active[v] {
			continue
		}
		live[v] = true
		liveCount++
	}
	prio, err := hashing.NewFamily(p.Independence, int64(n), int64(n)*int64(n)*8, 6)
	if err != nil {
		return nil, Stats{}, err
	}
	ws.deg = graph.Grow(ws.deg, n)
	var st Stats

	tb := &ws.table
	sel, local := phaseSelector(t, live, ws, prio, p)
	for liveCount > 0 {
		st.Phases++
		if st.Phases > 64*(n+2) {
			return nil, st, fmt.Errorf("mis: phase budget exhausted with %d live nodes", liveCount)
		}
		liveDegrees(t, live, ws.deg)
		sel.Salt = p.Salt + uint64(st.Phases)*0x9e3779b97f4a7c15
		f.Ledger().SetPhase("mis:select")
		res, err := sel.SelectMin(f, pairWords, 1, local, derand.Total)
		if err != nil {
			return nil, st, fmt.Errorf("mis: seed selection (phase %d): %w", st.Phases, err)
		}
		st.SeedCandidates += res.Stats.Candidates
		st.SeedBatches += res.Stats.Batches

		// The winner's joiners are its column of the batch's table; a
		// winner outside the tabulated batch gets a one-candidate table.
		col := int(res.Pair.Index - tb.base)
		if res.Pair.Index < tb.base || col >= tb.width {
			tabulate(t, live, tb, []derand.Pair{res.Pair})
			col = 0
		}
		for v := 0; v < n; v++ {
			joined[v] = tb.joined(v, col)
		}

		// Apply the phase: joiners announce to neighbors (one round, one fan
		// frame per joiner).
		f.Ledger().SetPhase("mis:announce")
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			v := int32(w)
			if !joined[v] {
				return
			}
			lo, hi := t.CliqueBlock(v)
			conflicts := t.Conflicts(v)
			word, dests := sb.BeginFan(int(hi-lo)+len(conflicts), 1)
			word[0] = 1
			// Every candidate is written and only live ones are kept.
			k := 0
			for u := lo; u < hi; u++ {
				dests[k] = u
				if u != v && live[u] {
					k++
				}
			}
			for _, u := range conflicts {
				dests[k] = u
				if live[u] {
					k++
				}
			}
			sb.CommitFan(k)
		}); err != nil {
			return nil, st, fmt.Errorf("mis: announce: %w", err)
		}
		for v := 0; v < n; v++ {
			if !joined[v] {
				continue
			}
			in[v] = true
			if live[v] {
				live[v] = false
				liveCount--
			}
			lo, hi := t.CliqueBlock(int32(v))
			for u := lo; u < hi; u++ {
				if int(u) != v && live[u] {
					live[u] = false
					liveCount--
				}
			}
			for _, u := range t.Conflicts(int32(v)) {
				if live[u] {
					live[u] = false
					liveCount--
				}
			}
		}
	}
	return in, st, nil
}
