package mis

import (
	"fmt"
	"slices"

	"ccolor/internal/fabric"
	"ccolor/internal/graph"
)

// This file builds deterministic (2,β)-ruling sets by iterated MIS on power
// graphs (Pai–Pemmaraju, PAPERS.md): a set S independent in G with every
// node within β hops of S. Iteration i computes a deterministic MIS of
// G^{p_i} induced on the survivors of iteration i−1; maximality moves every
// surviving candidate within p_i hops of the new set, so the domination
// radii add while the pairwise independence distance strictly grows. All
// communication runs through the same fabric derandomization as
// SolveDetSubset.

// RulingParams configures the deterministic ruling-set construction.
type RulingParams struct {
	// Beta is the target domination radius β (default 2): the returned set
	// is independent in G and every node ends within β hops of it.
	Beta int
	// MIS configures each iteration's deterministic MIS solve. The per-
	// iteration salt is derived from MIS.Salt so iterations draw distinct
	// seed sequences.
	MIS Params
}

// DefaultRulingParams returns the standard configuration: a 2-ruling set
// (MIS of the square graph) with the default MIS knobs.
func DefaultRulingParams() RulingParams {
	return RulingParams{Beta: 2, MIS: DefaultParams()}
}

// RulingStats reports a ruling-set run.
type RulingStats struct {
	Iterations     int
	Powers         []int // power-graph exponent per iteration
	MISPhases      int   // total MIS phases across iterations
	SeedCandidates int
	SetSize        int
}

// RulingWorkspace holds reusable SolveRuling scratch so warm session solves
// allocate nothing in steady state. The zero value is ready for use.
type RulingWorkspace struct {
	active []bool  // surviving candidate set between iterations
	off    []int32 // power-graph CSR offsets
	flat   []int32 // power-graph CSR adjacency slab
	mark   []int64 // BFS visit stamps (epoch never resets, so no clearing)
	depth  []int32 // BFS depth, valid where mark == epoch
	queue  []int32
	epoch  int64
	mis    Workspace
}

// RulingSchedule returns the power-graph exponents of the iterated-MIS
// construction for target radius beta: the doubling schedule 1, 2, …,
// 2^{t−1} with t = ⌊log₂(β+1)⌋, its last step inflated by the leftover
// budget β − (2^t − 1). The radii of the steps sum to exactly beta, and
// each step's power exceeds the previous step's independence distance, so
// every iteration strictly sparsifies.
func RulingSchedule(beta int) []int {
	if beta < 1 {
		beta = 1
	}
	var powers []int
	total := 0
	for p := 1; total+p <= beta; p *= 2 {
		powers = append(powers, p)
		total += p
	}
	powers[len(powers)-1] += beta - total
	return powers
}

// csrTopo exposes a CSR adjacency as a solveDet topology (no implicit
// clique block).
type csrTopo struct {
	n    int
	off  []int32
	flat []int32
}

func (t csrTopo) N() int                             { return t.n }
func (t csrTopo) CliqueBlock(v int32) (lo, hi int32) { return v, v }
func (t csrTopo) Conflicts(v int32) []int32          { return t.flat[t.off[v]:t.off[v+1]] }

// SolveRuling computes a deterministic (2,β)-ruling set over the fabric
// (one virtual worker per node): independent in g, every node within
// p.Beta hops of the set. ws may be nil; when non-nil the returned set
// aliases its scratch (valid until the next solve on the same workspace).
func SolveRuling(f fabric.Fabric, pairWords int, g *graph.Graph, p RulingParams, ws *RulingWorkspace) ([]bool, RulingStats, error) {
	n := g.N()
	if f.Workers() != n {
		return nil, RulingStats{}, fmt.Errorf("rulingset: fabric has %d workers for %d nodes", f.Workers(), n)
	}
	if p.Beta <= 0 {
		p.Beta = 2
	}
	if p.MIS.Independence == 0 {
		p.MIS = DefaultParams()
	}
	if ws == nil {
		ws = &RulingWorkspace{}
	}
	powers := RulingSchedule(p.Beta)
	st := RulingStats{Powers: powers}

	ws.active = graph.Grow(ws.active, n)
	ws.mark = graph.Grow(ws.mark, n)
	ws.depth = graph.Grow(ws.depth, n)
	active := ws.active
	for v := range active {
		active[v] = true
	}

	for i, pw := range powers {
		if err := ws.buildPower(g, active, pw); err != nil {
			return nil, st, err
		}
		mp := p.MIS
		// Decorrelate iterations: each draws its phase seeds from a distinct
		// salt stream (solveDet further salts per phase).
		mp.Salt = p.MIS.Salt + uint64(i+1)*0xbf58476d1ce4e5b9
		in, mst, err := solveDet(f, pairWords, csrTopo{n, ws.off, ws.flat}, active, mp, &ws.mis)
		if err != nil {
			return nil, st, fmt.Errorf("rulingset: iteration %d (power %d): %w", i+1, pw, err)
		}
		st.Iterations++
		st.MISPhases += mst.Phases
		st.SeedCandidates += mst.SeedCandidates
		copy(active, in)
	}
	for _, ok := range active {
		if ok {
			st.SetSize++
		}
	}
	return active, st, nil
}

// buildPower materializes G^power induced on the active nodes as a CSR over
// the full node-ID space: row v lists the active nodes u ≠ v within BFS
// distance power of v in g (paths may pass through inactive nodes). Rows of
// inactive nodes are empty. Rows are sorted for a canonical layout.
func (ws *RulingWorkspace) buildPower(g *graph.Graph, active []bool, power int) error {
	n := g.N()
	ws.off = graph.Grow(ws.off, n+1)
	flat := ws.flat[:0]
	ws.off[0] = 0
	for v := 0; v < n; v++ {
		if active[v] {
			ws.epoch++
			epoch := ws.epoch
			q := ws.queue[:0]
			ws.mark[v] = epoch
			ws.depth[v] = 0
			q = append(q, int32(v))
			row := len(flat)
			for head := 0; head < len(q); head++ {
				x := q[head]
				d := ws.depth[x]
				if int(d) >= power {
					continue
				}
				for _, u := range g.Neighbors(x) {
					if ws.mark[u] == epoch {
						continue
					}
					ws.mark[u] = epoch
					ws.depth[u] = d + 1
					q = append(q, u)
					if active[u] {
						flat = append(flat, u)
					}
				}
			}
			ws.queue = q
			slices.Sort(flat[row:])
		}
		ws.off[v+1] = int32(len(flat))
	}
	ws.flat = flat
	return nil
}
