// Package lowspace implements the paper's §4: deterministic (deg+1)-list
// coloring in low-space MPC (Theorem 1.4) via LowSpaceColorReduce /
// LowSpacePartition (Algorithms 3–4) and the MIS reduction of §4.1.
//
// Machines have 𝔰 = 𝔫^ε words. A node's neighbor list and palette are too
// large for one machine, so they are split into chunks of τ = 𝔫^{7δ} … 2τ
// entries hosted across machines (the paper's M_v^N / M_v^C machine sets);
// goodness is defined per chunk machine (Definition 4.1) and the hash pair
// is selected by the same derandomization engine, with the cost = number of
// bad machines (Lemma 4.4 bounds its expectation below 1).
//
// Recursion structure (Algorithm 3): low-degree nodes (d ≤ τ) peel off into
// the call's G0 pool; high-degree nodes partition into 𝔫^δ bins; bins
// 1..B−1 recurse in parallel, bin B after them; finally the pool is colored
// through the Luby reduction to MIS (internal/mis), the stage that
// dominates the O(log Δ + log log 𝔫) round bound.
package lowspace

import (
	"fmt"
	"math"
	"unsafe"

	"ccolor/internal/derand"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/mis"
	"ccolor/internal/mpc"
	"ccolor/internal/telemetry"
)

// Params configures the low-space run.
type Params struct {
	// Epsilon sets machine space 𝔰 = max(𝔫^Epsilon, spaceFloor) words.
	Epsilon float64
	// Delta is the bin exponent δ: B = max(2, ⌊𝔫^δ⌋) bins per level. The
	// paper sets δ = ε/22.
	Delta float64
	// TauExp sets the low-degree threshold τ = 𝔫^{TauExp·δ} (paper: 7).
	TauExp float64

	Independence int
	BatchWidth   int
	MaxBatches   int

	// DegSlackExp / PalSlackExp are Definition 4.1's chunk exponents
	// (paper: 0.6 and 0.7).
	DegSlackExp float64
	PalSlackExp float64

	MIS mis.Params
}

// DefaultParams returns the paper-faithful configuration for input size n.
func DefaultParams() Params {
	return Params{
		Epsilon:      0.5,
		Delta:        0.07, // τ = 𝔫^{7δ} ≈ 𝔫^{0.49} stays within 𝔰 = 𝔫^{0.5}
		TauExp:       7,
		Independence: 8,
		BatchWidth:   8,
		MaxBatches:   512,
		DegSlackExp:  0.6,
		PalSlackExp:  0.7,
		MIS:          mis.DefaultParams(),
	}
}

// Trace reports a low-space run, the raw material for experiment E7.
type Trace struct {
	N                int
	Delta            int
	Machines         int
	SpaceWords       int64
	Tau              int
	Bins             int
	Levels           int   // deepest recursion level reached
	PartitionRounds  int   // rounds spent in partition phases (executed)
	MISRounds        int   // rounds spent in MIS stages (executed)
	MISPhases        int   // total MIS phases
	CriticalRounds   int   // parallel-composition critical path
	ExecutedRounds   int   // total simulator rounds executed on the main cluster
	WordsMoved       int64 // total words moved on the main cluster
	MISWords         int64 // total words moved on the MIS pool clusters
	PoolNodes        int   // nodes colored through MIS pools
	BadNodes         int   // nodes demoted by bad chunk machines
	PeakMachineWords int64 // max resident+inbound on any machine
	PeakRoundWords   int64 // max words one round moved, across all clusters
	SeedCandidates   int
	// Phases merges per-phase rounds/words/loads across the main cluster
	// and every MIS cluster incarnation of the solve.
	Phases map[string]fabric.PhaseStats
}

// solver holds run state.
type solver struct {
	p       Params
	g       *graph.Graph
	n       int
	tau     int
	bins    int
	cluster *mpc.Cluster

	// Per-node state. adjacency is progressively filtered to same-bin live
	// neighbors; palettes are restricted by h2 chains and pruned of used
	// colors.
	adj     [][]int32
	pal     []graph.Palette
	color   []graph.Color
	machine []int // home machine per node (chunk-0 machine)

	// Reusable per-node scratch, stamp-based so recursive calls need no
	// per-call maps: stamp[v] == curStamp marks v in the current set.
	stamp    []int64
	curStamp int64
	idxOf    []int32 // node → set-local index scratch (colorPool, partition)

	// ws/mws are the persistent pool-solve and multicast workspaces, reused
	// across every colorPool/partition call and recursion level of the solve
	// so the steady-state pool path allocates (almost) nothing.
	ws  poolScratch
	mws mcastScratch
	// sel backs partition's derandomized seed selection (candidate pairs,
	// per-worker cost slabs, aggregation scratch).
	sel derand.Workspace

	// adjSlab/palSlab back the solver-owned adjacency and palette copies;
	// perMachine is the chunk-placement scratch. All three persist across
	// session solves.
	adjSlab    []int32
	palSlab    []graph.Color
	perMachine []int64

	// all is the top call's node list. stack holds every active
	// colorReduce call's pool, each above its ancestors': a call pushes its
	// pool, its recursive calls push theirs above it and pop them on
	// return, and the call colors its pool before popping it. high is the
	// high-degree set of the call whose partition is running; partition is
	// done with it before any recursive call starts, so every call reuses
	// it. All three persist across session solves.
	all   []int32
	stack []int32
	high  []int32

	colorDomain int64
	trace       *Trace

	// rec is the per-solve trace recorder (nil when tracing is off). The
	// solver attaches it to the main cluster's ledger at setup and to each
	// MIS cluster incarnation in colorPool; both run sequentially, so one
	// recorder sees every round in execution order.
	rec *telemetry.Recorder
}

// poolScratch is the solver-persistent workspace behind colorPool and
// partition: the live set, the set-local filtered adjacency in CSR form,
// palette views, the MIS reduction and its cluster, and the
// point-to-point pair buffer shared by the announce/notify multicasts.
// Buffers grow to the largest call and are then reused as-is.
type poolScratch struct {
	live    []int32         // colorPool's live set ONLY — partition's binsOf must stay freshly allocated (read across recursive calls that reuse this workspace)
	off     []int32         // CSR offsets into adjFlat (len set+1)
	adjFlat []int32         // set-local filtered adjacency
	adj     [][]int32       // per-node views into adjFlat
	pals    []graph.Palette // truncated palette views into solver pal
	pairs   []msgPair       // announce/notify staging

	// Partition's per-batch hash tabulation (VecSelector.Prepare):
	// node→bin in high-local index order and — for small color domains —
	// color→bin, one stride per candidate.
	nodeBins  []int32
	colorBins []int32

	red    mis.Reduction // reduction scratch (implicit-clique CSR layout)
	mis    mis.Workspace // SolveDet scratch
	col    graph.Coloring
	assign []int

	// misCluster is the one MIS cluster recycled (mpc.Cluster.Reset) across
	// all pools of the solve, replacing a fresh mpc.New per colorPool call.
	misCluster *mpc.Cluster
}

// Session is a reusable low-space solver: one Session runs any number of
// solves sequentially, retaining the solver's workspaces — per-node
// adjacency/palette slabs, the pool and multicast scratch, the main and
// MIS clusters (recycled via mpc.Cluster.Reset), and the derandomization
// buffers — across calls. Everything a caller can retain from a solve (the
// coloring, the trace) is freshly allocated per run, so warm solves are
// byte-identical to cold ones. Sessions are not safe for concurrent use.
type Session struct {
	s solver
}

// NewSession returns an empty session; the first Solve sizes it.
func NewSession() *Session { return &Session{} }

// SetRecorder sets (or, with nil, clears) the trace recorder the next Solve
// attaches to its cluster ledgers. The caller owns the recorder's lifecycle:
// clear it after a traced solve so the finished recorder does not linger.
func (ss *Session) SetRecorder(rec *telemetry.Recorder) { ss.s.rec = rec }

// Release stops the staging goroutines of the session's clusters (the main
// cluster and the recycled MIS cluster), which otherwise stay parked
// between solves. The session keeps its round buffers and remains usable:
// the next solve respawns the workers.
func (ss *Session) Release() {
	if ss.s.cluster != nil {
		ss.s.cluster.Release()
	}
	if ss.s.ws.misCluster != nil {
		ss.s.ws.misCluster.Release()
	}
}

// MemoryWords reports the session's retained workspace in 64-bit words
// after a solve: the solver's adjacency and palette slabs and per-node
// tables, the pool scratch with its MIS reduction, the MIS workspace — its
// per-batch priority table, n·BatchWidth words at the largest pool,
// included — and the derandomization and multicast scratch, at their
// capacities. The clusters' round buffers and own tables are not counted.
func (ss *Session) MemoryWords() int64 {
	s, ws, mws := &ss.s, &ss.s.ws, &ss.s.mws
	const headerWords = 3 // one slice header
	words := int64(cap(s.palSlab) + cap(s.stamp) + cap(s.machine) + cap(s.perMachine) +
		cap(ws.col) + cap(ws.assign))
	words += int64(cap(s.adj)+cap(s.pal)+cap(ws.adj)+cap(ws.pals)) * headerWords
	words += int64(cap(ws.pairs)) * int64(unsafe.Sizeof(msgPair{})/8)
	for _, l := range mws.rounds[:cap(mws.rounds)] {
		words += int64(cap(l.snd)+cap(l.rcv)) + 2*headerWords
	}
	i32 := cap(s.adjSlab) + cap(s.idxOf) + cap(s.all) + cap(s.stack) + cap(s.high) +
		cap(ws.live) + cap(ws.off) + cap(ws.adjFlat) + cap(ws.nodeBins) + cap(ws.colorBins) +
		cap(mws.roundOf) + cap(mws.order) + cap(mws.rstart)
	words += int64(i32) / 2
	return words + ws.red.MemoryWords() + ws.mis.MemoryWords() + s.sel.MemoryWords()
}

// Solve colors the instance in the low-space MPC model and returns the
// coloring plus telemetry. The package-level function runs on a transient
// session and releases it; use a Session to amortize setup across repeated
// solves.
func Solve(inst *graph.Instance, p Params) (graph.Coloring, *Trace, error) {
	var ss Session
	defer ss.Release()
	return ss.Solve(inst, p)
}

// Solve runs one instance on the session, reusing all retained state.
func (ss *Session) Solve(inst *graph.Instance, p Params) (graph.Coloring, *Trace, error) {
	n := inst.G.N()
	if n == 0 {
		return graph.Coloring{}, &Trace{}, nil
	}
	if p.Independence == 0 {
		p = DefaultParams()
	}
	delta := p.Delta
	if delta <= 0 {
		delta = p.Epsilon / 22 * 3 // keep τ = 𝔫^{7δ} ≈ 𝔫^{0.95ε} under 𝔰
	}
	tau := int(math.Ceil(math.Pow(float64(n), p.TauExp*delta)))
	if tau < 2 {
		tau = 2
	}
	bins := int(math.Floor(math.Pow(float64(n), delta)))
	if bins < 2 {
		bins = 2
	}
	space := int64(math.Ceil(math.Pow(float64(n), p.Epsilon)))
	if floor := int64(4*tau + 64); space < floor {
		space = floor // chunks of ≤ 2τ entries must fit with headroom
	}

	// Place node data chunk-by-chunk onto machines: a node's neighbor list
	// and palette split into pieces of ≤ 2τ words (the paper's M_v^N /
	// M_v^C machine sets), packed first-fit. The node's home machine — its
	// virtual worker's location for traffic accounting — is where its first
	// chunk lands. The assignment and per-machine totals live in session
	// scratch.
	s := &ss.s
	machineOf := graph.Grow(s.machine, n)
	m := 0
	perMachine := append(s.perMachine[:0], 0)
	for v := 0; v < n; v++ {
		w := int64(inst.G.Degree(int32(v)) + len(inst.Palettes[v]) + 4)
		first := true
		for rem := w; rem > 0; {
			chunk := int64(2 * tau)
			if chunk > rem {
				chunk = rem
			}
			if perMachine[m]+chunk > space {
				m++
				perMachine = append(perMachine, 0)
			}
			if first {
				machineOf[v] = m
				first = false
			}
			perMachine[m] += chunk
			rem -= chunk
		}
	}
	s.machine, s.perMachine = machineOf, perMachine
	machines := m + 1
	// One main cluster per session, recycled in place across solves.
	if s.cluster == nil {
		cluster, err := mpc.New(machineOf, machines, space)
		if err != nil {
			return nil, nil, fmt.Errorf("lowspace: cluster: %w", err)
		}
		s.cluster = cluster
	} else if err := s.cluster.Reset(machineOf, machines, space); err != nil {
		return nil, nil, fmt.Errorf("lowspace: cluster: %w", err)
	}
	cluster := s.cluster
	cluster.Ledger().SetRecorder(s.rec) // after Reset, which detaches
	for mm := 0; mm < machines; mm++ {
		if err := cluster.AdjustResidentMachine(mm, perMachine[mm]); err != nil {
			return nil, nil, fmt.Errorf("lowspace: resident: %w", err)
		}
	}

	s.p = p
	s.g = inst.G
	s.n = n
	s.tau = tau
	s.bins = bins
	s.adj = graph.Grow(s.adj, n)
	s.pal = graph.Grow(s.pal, n)
	s.color = graph.NewColoring(n) // returned to the caller: fresh per solve
	s.stamp = graph.Grow(s.stamp, n)
	s.idxOf = graph.Grow(s.idxOf, n)
	s.trace = &Trace{
		N: n, Delta: inst.G.MaxDegree(), Machines: machines,
		SpaceWords: space, Tau: tau, Bins: bins,
		Phases: make(map[string]fabric.PhaseStats),
	}
	// Stale stamps from a previous solve can never collide: curStamp only
	// ever grows, and every set membership test compares for equality
	// against a stamp minted after this solve began.

	// The solver-owned adjacency and palette copies are carved out of two
	// flat slabs: neighbor lists are immutable views, palettes only ever
	// shrink in place (sorted prune / splice), so per-node views never
	// reallocate and the copies cost (at most) two allocations per solve.
	// Capacity is reserved up front because append growth mid-loop would
	// detach earlier views.
	if need := inst.G.Size() - n; cap(s.adjSlab) < need { // Size() = |V| + 2|E|
		s.adjSlab = make([]int32, 0, need)
	}
	if need := inst.PaletteMass(); cap(s.palSlab) < need {
		s.palSlab = make([]graph.Color, 0, need)
	}
	adjSlab, palSlab := s.adjSlab[:0], s.palSlab[:0]
	maxColor := graph.Color(0)
	for v := 0; v < n; v++ {
		lo := len(adjSlab)
		adjSlab = append(adjSlab, inst.G.Neighbors(int32(v))...)
		s.adj[v] = adjSlab[lo:len(adjSlab):len(adjSlab)]
		plo := len(palSlab)
		palSlab = append(palSlab, inst.Palettes[v]...)
		s.pal[v] = graph.Palette(palSlab[plo:len(palSlab):len(palSlab)])
		if k := len(s.pal[v]); k > 0 && s.pal[v][k-1] > maxColor {
			maxColor = s.pal[v][k-1]
		}
	}
	s.colorDomain = maxColor + 1

	s.all = graph.Grow(s.all, n)
	for i := range s.all {
		s.all[i] = int32(i)
	}
	crit, err := s.colorReduce(s.all, 0)
	if err != nil {
		return nil, s.trace, err
	}
	s.trace.CriticalRounds = crit
	s.trace.ExecutedRounds = cluster.Ledger().Rounds()
	s.trace.WordsMoved = cluster.Ledger().WordsMoved()
	s.mergePhases(cluster.Ledger())
	// The trace peak is the max over the main cluster and every MIS
	// cluster incarnation (colorPool folds those in as it reads them).
	if pk := cluster.PeakMachineSpace(); pk > s.trace.PeakMachineWords {
		s.trace.PeakMachineWords = pk
	}
	if pr := cluster.Ledger().PeakRoundWords(); pr > s.trace.PeakRoundWords {
		s.trace.PeakRoundWords = pr
	}
	return s.color, s.trace, nil
}

// colorReduce is Algorithm 3 for one call; nodes is the call's live node
// set. It returns the call's critical-path round count (parallel siblings
// contribute their max).
func (s *solver) colorReduce(nodes []int32, depth int) (int, error) {
	if depth > s.trace.Levels {
		s.trace.Levels = depth
	}
	if depth > 64 {
		return 0, fmt.Errorf("lowspace: recursion depth %d", depth)
	}
	// Stamp the call's live (uncolored) nodes. Membership is stamp-based:
	// no per-call set allocation, and the stamp is only read before the
	// recursive calls below re-stamp it.
	s.curStamp++
	inCall := s.curStamp
	live := 0
	for _, v := range nodes {
		if s.color[v] == graph.NoColor {
			s.stamp[v] = inCall
			live++
		}
	}
	if live == 0 {
		return 0, nil
	}

	// Split into the low-degree pool G0, pushed onto the solver's stack,
	// and the high-degree remainder.
	degIn := func(v int32) int {
		d := 0
		for _, u := range s.adj[v] {
			if s.stamp[u] == inCall && s.color[u] == graph.NoColor {
				d++
			}
		}
		return d
	}
	base := len(s.stack)
	defer func() { s.stack = s.stack[:base] }()
	high := s.high[:0]
	for _, v := range nodes {
		if s.color[v] != graph.NoColor {
			continue
		}
		if degIn(v) <= s.tau {
			s.stack = append(s.stack, v)
		} else {
			high = append(high, v)
		}
	}
	s.high = high

	critical := 0
	s.cluster.Ledger().SetDepth(depth) // recursion depth for trace spans
	if len(high) > 0 {
		binsOf, badNodes, rounds, err := s.partition(high, depth)
		if err != nil {
			return 0, err
		}
		critical += rounds
		s.trace.PartitionRounds += rounds
		s.stack = append(s.stack, badNodes...) // the pool is the stack's top
		s.trace.BadNodes += len(badNodes)

		// Phase 1: bins 1..B−1 recurse in parallel (critical = max).
		maxChild := 0
		for b := 0; b < s.bins-1; b++ {
			c, err := s.colorReduce(binsOf[b], depth+1)
			if err != nil {
				return 0, err
			}
			if c > maxChild {
				maxChild = c
			}
		}
		critical += maxChild
		// Bin B recurses after phase 1 (palettes were pruned as phase-1
		// nodes got colored).
		c, err := s.colorReduce(binsOf[s.bins-1], depth+1)
		if err != nil {
			return 0, err
		}
		critical += c
	}

	// Color the pool through the MIS reduction (§4.1). The recursive calls
	// above moved the recorded depth; restore this call's before its pool.
	s.cluster.Ledger().SetDepth(depth)
	c, err := s.colorPool(s.stack[base:])
	if err != nil {
		return 0, err
	}
	critical += c
	return critical, nil
}

// mergePhases folds one ledger's per-phase profile into the trace — called
// once for the main cluster and once per MIS cluster incarnation (whose
// ledger is zeroed by the next pool's Reset).
func (s *solver) mergePhases(led *fabric.Ledger) {
	led.VisitPhases(func(label string, ps fabric.PhaseStats) {
		cur := s.trace.Phases[label]
		cur.Rounds += ps.Rounds
		cur.Words += ps.Words
		if ps.MaxSend > cur.MaxSend {
			cur.MaxSend = ps.MaxSend
		}
		if ps.MaxRecv > cur.MaxRecv {
			cur.MaxRecv = ps.MaxRecv
		}
		s.trace.Phases[label] = cur
	})
}
