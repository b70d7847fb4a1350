// Package baseline implements the comparison algorithms the paper's related
// work discusses (§1.3): a sequential greedy list-coloring reference, the
// classic randomized trial-coloring algorithm (O(log 𝔫) rounds w.h.p.), and
// a Parter'18-style deterministic recursive-halving coloring (O(log Δ)
// levels), realized as the B=2 / ℓ-halving instantiation of ColorReduce.
package baseline

import (
	"fmt"
	"slices"

	"ccolor/internal/core"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
)

// SeqGreedy colors the instance by sequential greedy in node order — the
// correctness reference and single-machine speed baseline.
func SeqGreedy(inst *graph.Instance) (graph.Coloring, error) {
	g := inst.G
	col := graph.NewColoring(g.N())
	var taken []graph.Color // sorted scratch, reused per node
	for v := 0; v < g.N(); v++ {
		taken = taken[:0]
		for _, u := range g.Neighbors(int32(v)) {
			if col[u] != graph.NoColor {
				taken = append(taken, col[u])
			}
		}
		slices.Sort(taken)
		picked := false
		for _, c := range inst.Palettes[v] {
			if _, hit := slices.BinarySearch(taken, c); !hit {
				col[v] = c
				picked = true
				break
			}
		}
		if !picked {
			return nil, fmt.Errorf("baseline: greedy stuck at node %d", v)
		}
	}
	return col, nil
}

// TrialStats reports a randomized trial-coloring run.
type TrialStats struct {
	Phases int
}

// RandTrial is the classic synchronized randomized list coloring: each
// phase, every uncolored node proposes a uniform color from its current
// palette; proposals are exchanged (one round), a node keeps its proposal
// if no conflicting uncolored neighbor has priority (lower ID), keepers
// announce (one round), and neighbors prune palettes. Terminates in
// O(log 𝔫) phases w.h.p.; deterministic given the seed.
func RandTrial(f fabric.Fabric, pairWords int, inst *graph.Instance, seed uint64) (graph.Coloring, TrialStats, error) {
	g := inst.G
	n := g.N()
	if f.Workers() != n {
		return nil, TrialStats{}, fmt.Errorf("baseline: fabric has %d workers for %d nodes", f.Workers(), n)
	}
	col := graph.NewColoring(n)
	pal := make([]graph.Palette, n)
	for v := range pal {
		pal[v] = append(graph.Palette(nil), inst.Palettes[v]...)
	}
	uncolored := n
	var st TrialStats
	for uncolored > 0 {
		st.Phases++
		if st.Phases > 64*(n+2) {
			return nil, st, fmt.Errorf("baseline: phase budget exhausted with %d uncolored", uncolored)
		}
		// Per-phase per-node deterministic pseudo-random pick.
		pick := make([]graph.Color, n)
		for v := 0; v < n; v++ {
			if col[v] != graph.NoColor || len(pal[v]) == 0 {
				pick[v] = graph.NoColor
				continue
			}
			r := graph.NewRand(seed ^ (uint64(st.Phases) << 32) ^ uint64(v))
			pick[v] = pal[v][r.Intn(int64(len(pal[v])))]
		}
		// Round 1: exchange proposals with neighbors.
		f.Ledger().SetPhase("trial:propose")
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			v := int32(w)
			if pick[v] == graph.NoColor {
				return
			}
			for _, u := range g.Neighbors(v) {
				if col[u] == graph.NoColor {
					sb.Put(int(u), uint64(pick[v]))
				}
			}
		}); err != nil {
			return nil, st, fmt.Errorf("baseline: propose: %w", err)
		}
		// Decide keepers: lower ID wins conflicts.
		keep := make([]bool, n)
		for v := 0; v < n; v++ {
			if pick[v] == graph.NoColor {
				continue
			}
			ok := true
			for _, u := range g.Neighbors(int32(v)) {
				if col[u] == graph.NoColor && pick[u] == pick[v] && u < int32(v) {
					ok = false
					break
				}
			}
			keep[v] = ok
		}
		// Round 2: keepers announce; neighbors prune.
		f.Ledger().SetPhase("trial:commit")
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			v := int32(w)
			if !keep[v] {
				return
			}
			for _, u := range g.Neighbors(v) {
				sb.Put(int(u), uint64(pick[v]))
			}
		}); err != nil {
			return nil, st, fmt.Errorf("baseline: commit: %w", err)
		}
		for v := 0; v < n; v++ {
			if !keep[v] {
				continue
			}
			col[v] = pick[v]
			uncolored--
		}
		used := make([]graph.Color, 0, 16) // sorted scratch, reused per node
		for v := 0; v < n; v++ {
			if col[v] != graph.NoColor {
				continue
			}
			used = used[:0]
			for _, u := range g.Neighbors(int32(v)) {
				if keep[u] {
					used = append(used, pick[u])
				}
			}
			if len(used) > 0 {
				slices.Sort(used)
				pal[v] = pal[v].Without(used)
			}
		}
	}
	return col, st, nil
}

// HalvingDet runs the Parter'18-style deterministic baseline: recursive
// bisection of nodes with ℓ halving per level (O(log Δ) recursion depth),
// realized as ColorReduce with ForceBins=2 and HalveEll. It shares the
// derandomization engine, so the comparison isolates the recursion
// structure.
func HalvingDet(f fabric.Fabric, pairWords int, inst *graph.Instance) (graph.Coloring, *core.Trace, error) {
	p := core.DefaultParams()
	p.ForceBins = 2
	p.HalveEll = true
	return core.Solve(f, pairWords, inst, p)
}
