package core

import (
	"fmt"

	"ccolor/internal/fabric"
	"ccolor/internal/graph"
)

// collectAndColor implements Algorithm 1's base case for a wave's worth of
// small instances at once: gather each instance onto a single machine
// (Lenzen-style routing, O(1) rounds for O(𝔫)-size instances), color it
// locally by greedy list coloring, scatter colors back, and notify
// neighbors so palettes stay current.
//
// The wave-level lookup tables (call → target/live list, node → assigned
// color, the per-node taken-color set) are epoch-stamped workspace slabs,
// reset per wave by one counter bump, and the gather's payload blocks,
// tables and slabs are retained in the workspace too, so repeated collect
// waves allocate nothing once the slabs have seen their largest wave.
func (s *solver) collectAndColor(calls []*call) error {
	ws := s.wsp
	ws.beginCollectWave(s.nextID, s.bign, s.colorSlots())
	var active []*call
	for _, c := range calls {
		start := len(ws.liveNodes)
		for _, v := range c.nodes {
			if s.color[v] == graph.NoColor {
				ws.liveNodes = append(ws.liveNodes, v)
			}
		}
		if len(ws.liveNodes) == start {
			s.onComplete(c)
			continue
		}
		ws.targetOf[c.id] = ws.liveNodes[start]
		ws.liveSpan[c.id] = [2]int32{int32(start), int32(len(ws.liveNodes))}
		ws.callStamp[c.id] = ws.collectEpoch
		active = append(active, c)
		ds := s.trace.depth(c.depth)
		ds.Collected++
		if c.role == roleG0 {
			ds.G0Size += c.size
		}
	}
	if len(active) == 0 {
		return nil
	}

	// Gather: each member ships [d, neighbors…, p, colors…] to its
	// instance's target machine. Palettes are truncated to d+1 colors
	// (§3.6), keeping every gathered instance at O(size) words. The payload
	// callback runs serially per worker, so the neighbor and palette
	// scratch are shared, and every node's block is carved out of one
	// retained slab (GatherMany reads the blocks until it returns, and an
	// append never writes inside a block already handed out).
	s.fab.Ledger().SetPhase("collect:gather")
	slab := ws.gatherWords[:0]
	gathered, err := ws.agg.GatherMany(s.fab, s.pw, func(w int) (int, []uint64) {
		v := int32(w)
		cid := s.callOf[v]
		if cid < 0 || s.color[v] != graph.NoColor {
			return -1, nil
		}
		if ws.callStamp[cid] != ws.collectEpoch {
			return -1, nil
		}
		target := ws.targetOf[cid]
		nbrs := ws.nbrs[:0]
		for _, u := range s.g.Neighbors(v) {
			if s.callOf[u] == cid && s.color[u] == graph.NoColor {
				nbrs = append(nbrs, u)
			}
		}
		ws.nbrs = nbrs
		pal := s.palFirstKInto(v, len(nbrs)+1)
		start := len(slab)
		slab = append(slab, uint64(len(nbrs)))
		for _, u := range nbrs {
			slab = append(slab, uint64(u))
		}
		slab = append(slab, uint64(len(pal)))
		for _, c := range pal {
			slab = append(slab, uint64(c))
		}
		return int(target), slab[start:len(slab):len(slab)]
	})
	ws.gatherWords = slab
	if err != nil {
		return fmt.Errorf("gather: %w", err)
	}

	// Local coloring at each target (the target machine's local step).
	for _, c := range active {
		target := ws.targetOf[c.id]
		got := gathered.To(int(target))
		size := 0
		for _, b := range got {
			size += len(b.Words)
		}
		if size > s.trace.MaxCollectedSize {
			s.trace.MaxCollectedSize = size
		}
		if err := s.greedyListColor(got); err != nil {
			return fmt.Errorf("call %d at target %d: %w", c.id, target, err)
		}
		s.trace.LocalColoredNodes += len(got)
	}

	// Scatter: each target sends every member its color (one word/pair).
	s.fab.Ledger().SetPhase("collect:scatter")
	if err := fabric.SendFrames(s.fab, func(w int, sb *fabric.SendBuf) {
		v := int32(w)
		for _, c := range active {
			if ws.targetOf[c.id] != v {
				continue
			}
			for _, u := range ws.liveOf(int32(c.id)) {
				if u == v {
					continue
				}
				sb.Put(int(u), uint64(ws.assigned[u]))
			}
		}
	}); err != nil {
		return fmt.Errorf("scatter: %w", err)
	}

	// Commit colors.
	var newlyColored []int32
	for _, c := range active {
		for _, v := range ws.liveOf(int32(c.id)) {
			col, ok := ws.assignedColor(v)
			if !ok {
				return fmt.Errorf("call %d: node %d missing assignment", c.id, v)
			}
			s.color[v] = col
			s.callOf[v] = -1
			s.colored++
			newlyColored = append(newlyColored, v)
		}
	}

	// Notify: every newly colored node announces its color to all its graph
	// neighbors (one word/pair); uncolored receivers drop the color from
	// their palettes — Algorithm 1's "update color palettes" steps.
	s.fab.Ledger().SetPhase("collect:notify")
	if err := fabric.SendFrames(s.fab, func(w int, sb *fabric.SendBuf) {
		v := int32(w)
		col, ok := ws.assignedColor(v)
		if !ok || s.color[v] == graph.NoColor {
			return
		}
		for _, u := range s.g.Neighbors(v) {
			sb.Put(int(u), uint64(col))
		}
	}); err != nil {
		return fmt.Errorf("notify: %w", err)
	}
	for _, v := range newlyColored {
		for _, u := range s.g.Neighbors(v) {
			if s.color[u] == graph.NoColor {
				s.palRemove(u, s.color[v])
			}
		}
	}

	for _, c := range active {
		s.onComplete(c)
	}
	return nil
}

// colorSlots is the size of the dense color universe the collect taken
// table is indexed by: the full {1..k} range in compact mode, the packed
// domain's distinct colors otherwise.
func (s *solver) colorSlots() int {
	if s.p.CompactPalettes {
		return int(s.colorDomain)
	}
	return len(s.dom.colors)
}

// colorSlot maps a palette color to its slot in the taken table.
func (s *solver) colorSlot(c graph.Color) int {
	if s.p.CompactPalettes {
		return int(c)
	}
	i, _ := s.dom.index(c)
	return i
}

// greedyListColor colors one gathered instance in sender order, reading
// each sender's [d, neighbors…, p, colors…] block in place (no per-node
// decode allocations): a node takes the first palette color no
// already-colored in-instance neighbor holds, recorded in the workspace
// assignment slab. The taken set is the stamp slab over the dense color
// universe — bumping its epoch empties it between senders. With
// p(v) > d(v) (maintained by the invariant and the runtime demotion net),
// a free color always exists.
func (s *solver) greedyListColor(blocks []fabric.SenderBlock) error {
	ws := s.wsp
	for _, b := range blocks {
		w := b.Words
		if len(w) < 2 {
			return fmt.Errorf("short block from %d", b.From)
		}
		d := int(w[0])
		if len(w) < 1+d+1 {
			return fmt.Errorf("truncated neighbor list from %d", b.From)
		}
		p := int(w[1+d])
		if len(w) != 2+d+p {
			return fmt.Errorf("bad block length from %d: %d words for d=%d p=%d", b.From, len(w), d, p)
		}
		ws.takenEpoch++
		if ws.takenEpoch == 0 { // wrapped: stale stamps would alias, reset
			clear(ws.takenStamp)
			ws.takenEpoch = 1
		}
		for i := 0; i < d; i++ {
			if c, ok := ws.assignedColor(int32(w[1+i])); ok {
				ws.takenStamp[s.colorSlot(c)] = ws.takenEpoch
			}
		}
		picked := false
		for i := 0; i < p; i++ {
			c := graph.Color(w[2+d+i])
			if ws.takenStamp[s.colorSlot(c)] != ws.takenEpoch {
				ws.assigned[b.From] = c
				ws.asgStamp[b.From] = ws.collectEpoch
				picked = true
				break
			}
		}
		if !picked {
			return fmt.Errorf("node %d: no free color among %d palette entries with %d neighbors",
				b.From, p, d)
		}
	}
	return nil
}
