// Package mis is the maximal-independent-set substrate the paper's
// low-space MPC result relies on (§4.1): the Luby reduction from
// (deg+1)-list coloring to MIS, and MIS algorithms — a sequential greedy
// baseline, randomized Luby, and a deterministic fabric-based variant whose
// per-phase randomness is a c-wise independent seed fixed by the same
// derandomization engine as the coloring algorithm. The deterministic
// variant stands in for the Czumaj–Davies–Parter SPAA'20 algorithm [7]: it
// exposes the same interface and a measured round envelope the Theorem 1.4
// experiment fits against.
package mis

import (
	"fmt"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// Greedy returns the lexicographically-first MIS (sequential baseline).
func Greedy(g *graph.Graph) []bool {
	in := make([]bool, g.N())
	blocked := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if blocked[v] {
			continue
		}
		in[v] = true
		for _, u := range g.Neighbors(int32(v)) {
			blocked[u] = true
		}
	}
	return in
}

// Verify checks independence and maximality.
func Verify(g *graph.Graph, in []bool) error {
	if len(in) != g.N() {
		return fmt.Errorf("mis: set has %d entries for %d nodes", len(in), g.N())
	}
	for v := 0; v < g.N(); v++ {
		hasInNeighbor := false
		for _, u := range g.Neighbors(int32(v)) {
			if in[u] {
				hasInNeighbor = true
				if in[v] {
					return fmt.Errorf("mis: adjacent nodes %d and %d both in set", v, u)
				}
			}
		}
		if !in[v] && !hasInNeighbor {
			return fmt.Errorf("mis: node %d not in set and not dominated", v)
		}
	}
	return nil
}

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

// topology abstracts the adjacency structure SolveDet runs over. Neighbors
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

// Workspace holds reusable SolveDet scratch so repeated solves (the
// low-space pool path runs one MIS per pool) allocate nothing in steady
// state. The zero value is ready for use.
type Workspace struct {
	in, live, joined []bool
	sel              derand.Workspace // phase seed selection buffers
}

// SolveDet computes an MIS deterministically over the fabric (one virtual
// worker per node). Each phase draws priorities from a c-wise independent
// hash; a node joins when its priority is a strict minimum among live
// neighbors (ties broken by ID). The phase seed is selected by batched
// derandomization against the potential Σ_{v joins}(d_live(v)+1), with a
// geometrically relaxed target so a productive seed always exists; the
// selected seed's realized progress is what the round envelope experiment
// measures.
func SolveDet(f fabric.Fabric, pairWords int, g *graph.Graph, p Params) ([]bool, Stats, error) {
	return solveDet(f, pairWords, graphTopo{g}, nil, p, nil)
}

// SolveDetSubset runs SolveDet restricted to the nodes with active[v] true:
// inactive nodes never participate, and the returned set is a maximal
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
	var st Stats

	joinsUnder := func(v int32, h hashing.Hash) bool {
		if !live[v] {
			return false
		}
		pv := h.Eval(int64(v))
		lo, hi := t.CliqueBlock(v)
		for u := lo; u < hi; u++ {
			if u == v || !live[u] {
				continue
			}
			pu := h.Eval(int64(u))
			if pu < pv || (pu == pv && u < v) {
				return false
			}
		}
		for _, u := range t.Conflicts(v) {
			if !live[u] {
				continue
			}
			pu := h.Eval(int64(u))
			if pu < pv || (pu == pv && u < v) {
				return false
			}
		}
		return true
	}
	liveDeg := func(v int32) int64 {
		d := int64(0)
		lo, hi := t.CliqueBlock(v)
		for u := lo; u < hi; u++ {
			if u != v && live[u] {
				d++
			}
		}
		for _, u := range t.Conflicts(v) {
			if live[u] {
				d++
			}
		}
		return d
	}

	for liveCount > 0 {
		st.Phases++
		if st.Phases > 64*(n+2) {
			return nil, st, fmt.Errorf("mis: phase budget exhausted with %d live nodes", liveCount)
		}
		// Select the phase seed as the deterministic argmin of the negated
		// potential −Σ_{v joins}(d_live(v)+1) over a fixed candidate
		// budget. Some node always holds the globally minimal priority, so
		// every candidate makes progress; the argmin maximizes it.
		sel := &derand.Selector{
			F1:         prio,
			F2:         prio, // unused second slot; same family keeps seeds aligned
			BatchWidth: p.BatchWidth,
			MaxBatches: p.MaxBatches,
			Salt:       p.Salt + uint64(st.Phases)*0x9e3779b97f4a7c15,
			WS:         &ws.sel,
		}
		f.Ledger().SetPhase("mis:select")
		pair, stats, err := sel.SelectBest(f, pairWords, 1, func(w int, pr derand.Pair) int64 {
			v := int32(w)
			if !live[v] || !joinsUnder(v, pr.H1) {
				return 0
			}
			return -(liveDeg(v) + 1)
		})
		if err != nil {
			return nil, st, fmt.Errorf("mis: seed selection (phase %d): %w", st.Phases, err)
		}
		st.SeedCandidates += stats.Candidates
		st.SeedBatches += stats.Batches
		chosen := pair.H1

		// Apply the phase: joiners announce to neighbors (one round).
		for v := 0; v < n; v++ {
			joined[v] = joinsUnder(int32(v), chosen)
		}
		f.Ledger().SetPhase("mis:announce")
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			v := int32(w)
			if !joined[v] {
				return
			}
			lo, hi := t.CliqueBlock(v)
			for u := lo; u < hi; u++ {
				if u != v && live[u] {
					sb.Put(int(u), 1)
				}
			}
			for _, u := range t.Conflicts(v) {
				if live[u] {
					sb.Put(int(u), 1)
				}
			}
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

// SolveLuby is the classic randomized baseline: per phase, uniform random
// priorities; local minima join. Deterministically seeded for
// reproducibility; round structure matches SolveDet without seed search.
func SolveLuby(g *graph.Graph, seed uint64) ([]bool, int) {
	n := g.N()
	rng := graph.NewRand(seed)
	in := make([]bool, n)
	live := make([]bool, n)
	liveCount := n
	for v := range live {
		live[v] = true
	}
	phases := 0
	for liveCount > 0 {
		phases++
		prio := make([]uint64, n)
		for v := range prio {
			prio[v] = rng.Uint64()
		}
		var joiners []int32
		for v := 0; v < n; v++ {
			if !live[v] {
				continue
			}
			minLocal := true
			for _, u := range g.Neighbors(int32(v)) {
				if !live[u] {
					continue
				}
				if prio[u] < prio[v] || (prio[u] == prio[v] && u < int32(v)) {
					minLocal = false
					break
				}
			}
			if minLocal {
				joiners = append(joiners, int32(v))
			}
		}
		for _, v := range joiners {
			in[v] = true
			if live[v] {
				live[v] = false
				liveCount--
			}
			for _, u := range g.Neighbors(v) {
				if live[u] {
					live[u] = false
					liveCount--
				}
			}
		}
	}
	return in, phases
}
