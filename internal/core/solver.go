package core

import (
	"errors"
	"fmt"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
)

// Role of a call within its parent ColorReduce invocation (Algorithm 1):
// the B−1 color-receiving bins recurse in parallel; bin B recurses after
// them; the bad-node graph G0 is colored last.
type callRole int

const (
	rolePhase1 callRole = iota + 1
	roleBinB
	roleG0
)

// call is one (sub-)instance in the ColorReduce recursion tree.
type call struct {
	id    int
	role  callRole
	nodes []int32 // global node IDs
	ell   float64
	depth int
	size  int // n_G + 2·m_G, measured when the call was scheduled

	parent *call

	// Gating state (populated when this call is partitioned).
	phase1Left int
	binB       *call
	g0         *call
	partitions bool // true once Partition ran for this call
	completed  bool
}

// errNoProgress guards against scheduler deadlock (a bug, not an input
// condition).
var errNoProgress = errors.New("core: scheduler wave made no progress")

// Workspace holds the per-run scratch a solver session retains across
// Solve calls: palette state (with the packed palettes carved out of two
// slabs), per-node call stamps, the call registry, the derandomization
// engine's candidate/aggregation buffers, and the collect-wave scratch.
// Buffers grow to the largest instance seen and are then reused as-is; the
// zero value is ready. Everything a caller can retain from a solve — the
// coloring, the trace — is freshly allocated per run, so two solves
// through one workspace never share observable state.
type Workspace struct {
	pal    []palState
	callOf []int32
	dom    palDomain // dense color domain behind the packed palettes
	palWI  []int32   // packed palette word indices, carved per node
	palW   []uint64  // packed palette words, parallel to palWI
	calls  map[int]*call

	// Partition scratch: the batch tables the derand Prepare hook fills
	// (the node-major h₁ seedTable words and the per-candidate color-bin
	// masks under h₂; the winner reuses them as a one-candidate batch), the
	// live palette union the mask builder iterates, and the in-call degree
	// table each scheduled call fills once.
	candTab   []uint64
	candMasks []uint64
	palUnion  []uint64
	dx        []int32
	pool      *fabric.WorkPool // parallel table fills (lazy)

	sel     derand.Workspace  // partition seed selection
	agg     fabric.VecScratch // wave-barrier aggregation and collect gather
	barrier []int64           // per-worker barrier contribution slab

	// Collect-wave scratch (see collectAndColor): the wave-local lookup
	// tables as epoch-stamped slabs rather than maps, so repeated collect
	// waves are hash- and allocation-free. targetOf/liveSpan are indexed by
	// call id, assigned by node, taken by dense color slot; an entry is live
	// only when its stamp equals the current epoch, so per-wave (and, for
	// taken, per-gathered-node) reset is one counter increment.
	collectEpoch uint32
	targetOf     []int32    // call id → target node
	liveSpan     [][2]int32 // call id → [start, end) into liveNodes
	callStamp    []uint32
	liveNodes    []int32 // arena behind liveSpan, reset per wave
	assigned     []graph.Color
	asgStamp     []uint32
	takenEpoch   uint32
	takenStamp   []uint32
	firstK       []graph.Color
	nbrs         []int32
	gatherWords  []uint64 // the gather's payload blocks, one per gathering node
}

// beginCollectWave sizes the collect slabs for the wave (call-indexed
// tables up to calls ids, node tables to n, the taken table to the dense
// color universe) and advances the wave epoch, invalidating every entry of
// the previous wave in O(1).
func (ws *Workspace) beginCollectWave(calls, n, colorSlots int) {
	ws.targetOf = graph.Grow(ws.targetOf, calls)
	ws.liveSpan = graph.Grow(ws.liveSpan, calls)
	ws.callStamp = graph.Grow(ws.callStamp, calls)
	ws.assigned = graph.Grow(ws.assigned, n)
	ws.asgStamp = graph.Grow(ws.asgStamp, n)
	ws.takenStamp = graph.Grow(ws.takenStamp, colorSlots)
	ws.liveNodes = ws.liveNodes[:0]
	ws.collectEpoch++
	if ws.collectEpoch == 0 { // wrapped: stale stamps would alias, reset
		clear(ws.callStamp)
		clear(ws.asgStamp)
		ws.collectEpoch = 1
	}
}

// liveOf returns the live-node list recorded for call id this wave.
func (ws *Workspace) liveOf(id int32) []int32 {
	span := ws.liveSpan[id]
	return ws.liveNodes[span[0]:span[1]]
}

// assignedColor returns the color assigned to node v this wave, if any.
func (ws *Workspace) assignedColor(v int32) (graph.Color, bool) {
	if ws.asgStamp[v] != ws.collectEpoch {
		return 0, false
	}
	return ws.assigned[v], true
}

// Release stops the workspace's lazily created candidate-table worker pool,
// parking its goroutines. The owning session calls this when it retires
// (engine.Session.Release wires it through); the workspace stays usable —
// the next solve simply spawns a fresh pool on demand.
func (ws *Workspace) Release() {
	if ws.pool != nil {
		ws.pool.Stop()
	}
}

func (ws *Workspace) ensure(n int) {
	ws.pal = graph.Grow(ws.pal, n)
	ws.callOf = graph.Grow(ws.callOf, n)
	ws.dx = graph.Grow(ws.dx, n)
	ws.barrier = graph.Grow(ws.barrier, n)
	if ws.calls == nil {
		ws.calls = make(map[int]*call)
	} else {
		clear(ws.calls)
	}
}

// solver carries all run state for one Solve invocation.
type solver struct {
	p    Params
	fab  fabric.Fabric
	pw   int
	g    *graph.Graph
	bign int

	color  []graph.Color
	pal    []palState
	dom    *palDomain // dense color domain for packed palettes
	callOf []int32    // call id per node; -1 once colored
	dx     []int32    // in-call degree per node, filled per scheduled call

	colorDomain int64 // exclusive upper bound on color values

	calls    map[int]*call
	nextID   int
	runnable []*call
	colored  int

	wsp   *Workspace
	trace *Trace
}

// Solve runs deterministic (Δ+1)-list coloring (Algorithm 1, ColorReduce)
// on the given instance over the given fabric, returning the coloring and
// full telemetry. pairWords is the fabric's per-ordered-pair word budget
// (the congested clique's O(log 𝔫) bits).
func Solve(f fabric.Fabric, pairWords int, inst *graph.Instance, p Params) (graph.Coloring, *Trace, error) {
	return SolveWS(f, pairWords, inst, p, nil)
}

// SolveWS is Solve drawing its per-run scratch from ws (nil for a
// transient workspace). A solver session passes the same workspace on
// every call so warm solves skip the per-run setup allocations; results
// are byte-identical to a cold Solve on the same (fabric, instance,
// params).
func SolveWS(f fabric.Fabric, pairWords int, inst *graph.Instance, p Params, ws *Workspace) (graph.Coloring, *Trace, error) {
	s, err := newSolver(f, pairWords, inst, p, ws)
	if err != nil {
		return nil, nil, err
	}
	for s.colored < s.bign {
		if err := s.wave(); err != nil {
			return nil, s.trace, err
		}
		if s.trace.Waves > 4*s.bign+64 {
			return nil, s.trace, fmt.Errorf("core: wave budget exhausted at %d/%d colored", s.colored, s.bign)
		}
	}
	return s.color, s.trace, nil
}

// newSolver validates the instance, initializes the run state in ws (nil
// for a transient workspace) and schedules the root call.
func newSolver(f fabric.Fabric, pairWords int, inst *graph.Instance, p Params, ws *Workspace) (*solver, error) {
	n := inst.G.N()
	if f.Workers() != n {
		return nil, fmt.Errorf("core: fabric has %d workers for %d nodes", f.Workers(), n)
	}
	// ColorReduce solves (Δ+1)-list coloring: every palette must exceed Δ
	// (Corollary 3.3(i) with the initial ℓ = Δ). (deg+1)-list instances
	// belong to the low-space algorithm (internal/lowspace, Theorem 1.4).
	// The packed palettes index colors from 0 and pack each palette in one
	// ascending pass, so palettes must also be strictly ascending from 0.
	if len(inst.Palettes) != n {
		return nil, fmt.Errorf("core: %d palettes for %d nodes", len(inst.Palettes), n)
	}
	delta := inst.G.MaxDegree()
	for v, p := range inst.Palettes {
		if v > 0 && sameSlice(p, inst.Palettes[v-1]) {
			continue // checked as node v−1's
		}
		if len(p) <= delta {
			return nil, fmt.Errorf(
				"core: node %d has palette %d ≤ Δ=%d; ColorReduce requires a (Δ+1)-list instance (use internal/lowspace for (deg+1)-list)",
				v, len(p), delta)
		}
		if p[0] < 0 {
			return nil, fmt.Errorf("core: node %d has negative color %d", v, p[0])
		}
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return nil, fmt.Errorf("core: node %d palette is not strictly ascending (%d after %d)", v, p[i], p[i-1])
			}
		}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensure(n)
	s := &solver{
		p:      p,
		fab:    f,
		pw:     pairWords,
		g:      inst.G,
		bign:   n,
		color:  graph.NewColoring(n),
		pal:    ws.pal[:n],
		callOf: ws.callOf[:n],
		dx:     ws.dx[:n],
		calls:  ws.calls,
		wsp:    ws,
		trace:  &Trace{InputN: n, InputDelta: inst.G.MaxDegree()},
	}
	s.dom = &ws.dom
	maxColor := graph.Color(0)
	if p.CompactPalettes {
		for v := 0; v < n; v++ {
			hi, err := rangeTop(inst.Palettes[v])
			if err != nil {
				return nil, fmt.Errorf("core: compact palettes: %w", err)
			}
			s.pal[v] = palState{compact: true, rangeHi: hi, sizeCache: -1}
			if hi > maxColor {
				maxColor = hi
			}
		}
	} else if c := s.initPackedPalettes(inst.Palettes); c > maxColor {
		maxColor = c
	}
	s.colorDomain = maxColor + 1

	if root := s.newCall(rolePhase1, allNodes(n), float64(delta), 0, nil); root != nil { // nil when n == 0
		s.runnable = append(s.runnable, root)
	}
	return s, nil
}

// initPackedPalettes builds the solve's dense color domain and packs every
// node's palette as a sparse bitset over it: the ascending indices of its
// nonzero words plus those words, carved out of two workspace slabs sized
// once from Σ min(p(v), W). Palettes are strictly ascending, so each
// palette's domain indices ascend and its words come out in order in one
// pass. A node whose palette is the same slice as the previous node's (as
// in graph.DeltaPlus1Instance) copies that node's words. Returns the
// largest color seen.
func (s *solver) initPackedPalettes(pals []graph.Palette) graph.Color {
	ws := s.wsp
	ws.dom.build(pals)
	need := 0
	for _, p := range pals {
		need += min(len(p), ws.dom.words)
	}
	ws.palWI = graph.Grow(ws.palWI, need)
	ws.palW = graph.Grow(ws.palW, need)
	off := 0
	for v, p := range pals {
		wi, w := ws.palWI[off:], ws.palW[off:]
		k := 0
		if v > 0 && sameSlice(p, pals[v-1]) {
			k = copy(wi, s.pal[v-1].wi)
			copy(w, s.pal[v-1].w)
		} else {
			for _, c := range p {
				i, _ := ws.dom.index(c)
				if x := int32(i >> 6); k == 0 || wi[k-1] != x {
					wi[k], w[k] = x, 0
					k++
				}
				w[k-1] |= 1 << (uint(i) & 63)
			}
		}
		s.pal[v] = palState{wi: wi[:k:k], w: w[:k:k], size: len(p)}
		off += k
	}
	if len(ws.dom.colors) == 0 {
		return 0
	}
	return ws.dom.colors[len(ws.dom.colors)-1]
}

// MemoryWords reports the workspace's retained scratch footprint in 64-bit
// words after a solve — the per-layer memory budget the engine surfaces in
// its Report. The packed palette slabs, linear in the palette mass, are
// the largest part; the remaining slabs, the collect gather's payload slab
// and the aggregation and gather scratch among them, are folded in at
// their word-equivalent sizes.
func (ws *Workspace) MemoryWords() int64 {
	words := int64(cap(ws.palW) + cap(ws.candTab) + cap(ws.candMasks) + cap(ws.palUnion))
	words += int64(cap(ws.barrier)) // int64 slab
	words += int64(cap(ws.gatherWords)) + ws.agg.MemoryWords()
	// int32 slabs: two entries per word.
	i32 := cap(ws.callOf) + cap(ws.palWI) + cap(ws.dx) + cap(ws.targetOf) + cap(ws.liveNodes)
	words += int64(i32) / 2
	return words
}

// rangeTop validates that a palette is exactly {1..k} (the (Δ+1)-coloring
// special case Theorem 1.3's compact mode requires) and returns k.
func rangeTop(pal graph.Palette) (graph.Color, error) {
	for i, c := range pal {
		if c != graph.Color(i+1) {
			return 0, fmt.Errorf("palette is not a {1..k} range (entry %d is %d)", i, c)
		}
	}
	return graph.Color(len(pal)), nil
}

func allNodes(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// newCall registers a call instance and stamps its nodes. Returns nil for
// an empty node set.
func (s *solver) newCall(role callRole, nodes []int32, ell float64, depth int, parent *call) *call {
	if len(nodes) == 0 {
		return nil
	}
	c := &call{id: s.nextID, role: role, nodes: nodes, ell: ell, depth: depth, parent: parent}
	s.nextID++
	s.calls[c.id] = c
	for _, v := range nodes {
		s.callOf[v] = int32(c.id)
	}
	return c
}

// wave executes one scheduler wave: all currently runnable calls either
// partition or collect; completions cascade and gate successors.
func (s *solver) wave() error {
	work := s.runnable
	s.runnable = nil
	if len(work) == 0 {
		return errNoProgress
	}
	s.trace.Waves++
	var palWords int64
	for v := 0; v < s.bign; v++ {
		palWords += s.palWords(int32(v))
	}
	if palWords > s.trace.PeakPaletteWords {
		s.trace.PeakPaletteWords = palWords
	}

	// Wave barrier: a real 2-round aggregate of the uncolored count keeps
	// the control plane honest in the round ledger. Contributions come out
	// of the workspace slab — one word per worker, no per-callback slices.
	s.fab.Ledger().SetDepth(0) // the control plane is depth-free
	s.fab.Ledger().SetPhase("control")
	barrier := s.wsp.barrier[:s.bign]
	tot, err := s.wsp.agg.AggregateVec(s.fab, s.pw, 1, func(w int) []int64 {
		out := barrier[w : w+1]
		if s.color[w] == graph.NoColor {
			out[0] = 1
		} else {
			out[0] = 0
		}
		return out
	})
	if err != nil {
		return fmt.Errorf("core: wave barrier: %w", err)
	}
	if int(tot[0]) != s.bign-s.colored {
		return fmt.Errorf("core: uncolored count mismatch: %d vs %d", tot[0], s.bign-s.colored)
	}

	var toCollect, toPartition []*call
	for _, c := range work {
		size, maxDeg := s.callDegrees(c)
		c.size = size
		ds := s.trace.depth(c.depth)
		ds.Calls++
		if len(c.nodes) > ds.MaxNodes {
			ds.MaxNodes = len(c.nodes)
		}
		if c.ell > ds.MaxEll {
			ds.MaxEll = c.ell
		}
		if size > ds.MaxSize {
			ds.MaxSize = size
		}
		if maxDeg > ds.MaxDegree {
			ds.MaxDegree = maxDeg
		}
		if c.role == roleG0 || s.p.shouldCollect(size, s.bign, c.ell) {
			toCollect = append(toCollect, c)
		} else {
			toPartition = append(toPartition, c)
		}
	}

	for _, c := range toPartition {
		if c.depth >= s.p.MaxDepth {
			return fmt.Errorf("core: recursion depth %d exceeds MaxDepth %d", c.depth, s.p.MaxDepth)
		}
		s.fab.Ledger().SetDepth(c.depth) // recursion depth for trace spans
		if err := s.partition(c); err != nil {
			return fmt.Errorf("core: partition call %d (depth %d, ℓ=%.1f): %w", c.id, c.depth, c.ell, err)
		}
	}
	if len(toCollect) > 0 {
		// A collect wave batches calls from several depths; the trace tags
		// its rounds with the deepest one.
		depth := 0
		for _, c := range toCollect {
			if c.depth > depth {
				depth = c.depth
			}
		}
		s.fab.Ledger().SetDepth(depth)
		if err := s.collectAndColor(toCollect); err != nil {
			return fmt.Errorf("core: collect wave: %w", err)
		}
	}
	return nil
}

// callDegrees fills dx with every member's in-call degree d(v), once per
// scheduled call, and returns the call's size n_G + 2·m_G and its maximum
// degree. The wave's collect-or-partition decision, the trace, the
// partition audit and Definition 3.1 all read these.
func (s *solver) callDegrees(c *call) (size, maxDeg int) {
	size = len(c.nodes)
	for _, v := range c.nodes {
		d := s.degreeIn(v, int32(c.id))
		s.dx[v] = d
		size += int(d)
		maxDeg = max(maxDeg, int(d))
	}
	return size, maxDeg
}

// degreeIn returns d(v) within call id. Colored nodes carry callOf −1, so
// the stamp alone decides membership, and the single comparison compiles
// to a conditional move: the count has no data-dependent branch.
func (s *solver) degreeIn(v int32, id int32) int32 {
	d := int32(0)
	for _, u := range s.g.Neighbors(v) {
		if s.callOf[u] == id {
			d++
		}
	}
	return d
}

// onComplete cascades a finished call through its parent's Algorithm 1
// gates: phase-1 bins → bin B → G0 → parent complete.
func (s *solver) onComplete(c *call) {
	if c.completed {
		return
	}
	c.completed = true
	p := c.parent
	if p == nil {
		return
	}
	switch c.role {
	case rolePhase1:
		p.phase1Left--
		if p.phase1Left == 0 {
			s.launchBinB(p)
		}
	case roleBinB:
		s.launchG0(p)
	case roleG0:
		s.onComplete(p)
	}
}

// launchBinB opens the gate for the parent's bin-B child: its palettes have
// been updated continuously as neighbors announced colors, so it is ready
// to recurse (Algorithm 1's "Update color palettes of G_{ℓ^0.1}").
func (s *solver) launchBinB(p *call) {
	b := p.binB
	if b == nil {
		s.launchG0(p)
		return
	}
	s.demoteUnderpaletted(b, p.g0)
	if len(b.nodes) == 0 || s.liveCount(b) == 0 {
		s.onComplete(b)
		return
	}
	s.runnable = append(s.runnable, b)
}

// launchG0 opens the gate for the parent's bad-node graph G0, which is
// always collected and colored locally (Corollary 3.10 bounds its size).
func (s *solver) launchG0(p *call) {
	g0 := p.g0
	if g0 == nil || s.liveCount(g0) == 0 {
		if g0 != nil {
			s.onComplete(g0)
		} else {
			s.onComplete(p)
		}
		return
	}
	s.runnable = append(s.runnable, g0)
}

func (s *solver) liveCount(c *call) int {
	n := 0
	for _, v := range c.nodes {
		if s.color[v] == graph.NoColor {
			n++
		}
	}
	return n
}

// demoteUnderpaletted moves nodes whose current palette no longer strictly
// exceeds their within-call degree into the parent's G0 (runtime safety net
// for the finite-scale regime; counted as ExtraBad in the trace). Iterates
// to a fixpoint since each demotion lowers neighbors' degrees.
func (s *solver) demoteUnderpaletted(c *call, g0 *call) {
	for {
		var demote []int32
		for _, v := range c.nodes {
			if s.color[v] != graph.NoColor {
				continue
			}
			if s.palSize(v) <= int(s.degreeIn(v, int32(c.id))) {
				demote = append(demote, v)
			}
		}
		if len(demote) == 0 {
			return
		}
		s.trace.depth(c.depth).ExtraBad += len(demote)
		set := make(map[int32]struct{}, len(demote))
		for _, v := range demote {
			set[v] = struct{}{}
		}
		kept := c.nodes[:0]
		for _, v := range c.nodes {
			if _, hit := set[v]; !hit {
				kept = append(kept, v)
			}
		}
		c.nodes = kept
		if g0 == nil {
			// Shouldn't happen: every partitioned call has a G0 container.
			// Color the demoted nodes as a degenerate G0 by appending to the
			// parent's node list is impossible here; panic loudly in tests.
			panic("core: demotion with no G0 container")
		}
		g0.nodes = append(g0.nodes, demote...)
		for _, v := range demote {
			s.callOf[v] = int32(g0.id)
		}
	}
}
