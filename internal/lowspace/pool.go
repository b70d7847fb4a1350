package lowspace

import (
	"fmt"
	"sort"

	"ccolor/internal/graph"
	"ccolor/internal/mis"
	"ccolor/internal/mpc"
)

// colorPool colors a call's G0 pool — its low-degree and demoted nodes —
// through the §4.1 Luby reduction to MIS, run on a dedicated low-space
// cluster (reduction-graph nodes hosted on 𝔰-word machines). Palettes are
// first truncated to d+1 colors so reduction degrees stay ≤ 2τ-scale.
// Returns the rounds charged (MIS cluster rounds + one notify round).
//
// Everything the call needs lives in the solver's persistent poolScratch:
// the pool-induced instance is a CSR view (filtered adjacency in one flat
// buffer, palettes as truncated views into the solver's palette state), the
// reduction is rebuilt in place with implicit clique blocks, and the MIS
// cluster is recycled via Reset instead of constructed per pool.
func (s *solver) colorPool(pool []int32) (int, error) {
	ws := &s.ws
	live := ws.live[:0]
	for _, v := range pool {
		if s.color[v] == graph.NoColor {
			live = append(live, v)
		}
	}
	ws.live = live
	if len(live) == 0 {
		return 0, nil
	}
	s.trace.PoolNodes += len(live)

	// Build the pool-induced instance with truncated palettes. The
	// node → pool-index mapping reuses the solver's stamp + index scratch
	// instead of a per-call map.
	s.curStamp++
	inPool := s.curStamp
	for i, v := range live {
		s.stamp[v] = inPool
		s.idxOf[v] = int32(i)
	}
	off := graph.Grow(ws.off, len(live)+1)
	flat := ws.adjFlat[:0]
	off[0] = 0
	for i, v := range live {
		for _, u := range s.adj[v] {
			if s.stamp[u] == inPool {
				flat = append(flat, s.idxOf[u])
			}
		}
		off[i+1] = int32(len(flat))
	}
	ws.off, ws.adjFlat = off, flat
	adj := graph.Grow(ws.adj, len(live))
	pals := graph.Grow(ws.pals, len(live))
	for i, v := range live {
		adj[i] = flat[off[i]:off[i+1]]
		need := int(off[i+1]-off[i]) + 1
		if len(s.pal[v]) < need {
			return 0, fmt.Errorf("lowspace: pool node %d has %d colors for degree %d",
				v, len(s.pal[v]), need-1)
		}
		pals[i] = s.pal[v][:need]
	}
	ws.adj, ws.pals = adj, pals
	red := &ws.red
	red.Build(adj, pals)

	// Host the reduction graph on a low-space cluster: reduction node x
	// weighs deg(x)+2 words; machines have 𝔰 words. One cluster instance is
	// recycled across all pools of the solve.
	rn := red.N()
	assign := ws.assign[:0]
	m := 0
	var used int64
	for x := 0; x < rn; x++ {
		w := int64(red.Degree(int32(x)) + 2)
		if used+w > s.trace.SpaceWords {
			m++
			used = 0
		}
		assign = append(assign, m)
		used += w
	}
	ws.assign = assign
	if ws.misCluster == nil {
		c, err := mpc.New(assign, m+1, s.trace.SpaceWords)
		if err != nil {
			return 0, fmt.Errorf("lowspace: MIS cluster: %w", err)
		}
		ws.misCluster = c
	} else if err := ws.misCluster.Reset(assign, m+1, s.trace.SpaceWords); err != nil {
		return 0, fmt.Errorf("lowspace: MIS cluster: %w", err)
	}
	misCluster := ws.misCluster
	// The MIS rounds run between main-cluster rounds, so the solve's one
	// recorder (attached after Reset detached any stale one) sees them in
	// execution order under their own mis:* phase labels.
	misCluster.Ledger().SetRecorder(s.rec)
	for x := 0; x < rn; x++ {
		if err := misCluster.AdjustResident(x, int64(red.Degree(int32(x))+2)); err != nil {
			return 0, fmt.Errorf("lowspace: MIS resident: %w", err)
		}
	}
	mp := s.p.MIS
	mp.Salt = uint64(len(live))*0x9e3779b97f4a7c15 + uint64(s.trace.PoolNodes)
	in, st, err := mis.SolveDetReduction(misCluster, pairWords, red, mp, &ws.mis)
	if err != nil {
		return 0, fmt.Errorf("lowspace: MIS: %w", err)
	}
	// Telemetry is read now: the next pool's Reset clears the ledger.
	misRounds := misCluster.Ledger().Rounds()
	s.trace.MISPhases += st.Phases
	s.trace.MISRounds += misRounds
	s.trace.MISWords += misCluster.Ledger().WordsMoved()
	s.mergePhases(misCluster.Ledger())
	if pk := misCluster.PeakMachineSpace(); pk > s.trace.PeakMachineWords {
		s.trace.PeakMachineWords = pk
	}
	if pr := misCluster.Ledger().PeakRoundWords(); pr > s.trace.PeakRoundWords {
		s.trace.PeakRoundWords = pr
	}
	col := growColoring(ws.col, len(live))
	if err := red.ExtractColoringInto(in, col); err != nil {
		return 0, err
	}
	ws.col = col

	// Commit and notify: colored pool nodes announce to all neighbors
	// (space-bounded multicast), which prune their palettes.
	for i, v := range live {
		s.color[v] = col[i]
	}
	notify := ws.pairs[:0]
	for _, v := range live {
		for _, u := range s.adj[v] {
			notify = append(notify, msgPair{from: v, to: u, word: uint64(s.color[v])})
		}
	}
	ws.pairs = notify
	if err := s.spacedMulticast("lowspace:notify", notify); err != nil {
		return 0, err
	}
	for _, v := range live {
		for _, u := range s.adj[v] {
			if s.color[u] == graph.NoColor {
				s.pal[u] = removeColor(s.pal[u], s.color[v])
			}
		}
	}
	return misRounds + 1, nil
}

// removeColor deletes one color from a sorted palette in place (binary
// search + splice — the same prune core uses via palRemove). Palettes are
// solver-owned, so shrinking the view is safe.
func removeColor(p graph.Palette, c graph.Color) graph.Palette {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= c })
	if i < len(p) && p[i] == c {
		return append(p[:i], p[i+1:]...)
	}
	return p
}

func growColoring(c graph.Coloring, n int) graph.Coloring {
	c = graph.Grow(c, n)
	for i := range c {
		c[i] = graph.NoColor
	}
	return c
}
