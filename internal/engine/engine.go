// Package engine is the reusable solver-session layer between the public
// ccolor facade and the model backends. A Session owns one model's
// long-lived simulator state — the congested-clique Network or MPC Cluster
// (re-armed in place via Reset/ResetLinear instead of rebuilt), the core
// solver workspace (palette slabs, call registry, collect scratch, the
// derandomization engine's candidate and aggregation buffers), or the
// low-space solver session — and runs any number of solves sequentially on
// top of it.
//
// The contract that makes sessions safe to park between facade solves and
// to pin in serving workers is: a warm solve is byte-identical to a cold
// one. Every solve fully re-dimensions the retained state from its
// instance, and everything a caller can retain from a Report (coloring,
// traces, phase maps) is freshly allocated per run. The golden-ledger and
// cross-instance isolation tests pin this equivalence for every scenario
// family on every backend.
package engine

import (
	"fmt"
	"slices"

	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/lowspace"
	"ccolor/internal/mis"
	"ccolor/internal/mpc"
	"ccolor/internal/problem"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// Model selects which of the paper's execution models runs a job.
type Model string

const (
	// ModelCClique is the CONGESTED CLIQUE (Theorem 1.1).
	ModelCClique Model = "cclique"
	// ModelMPC is linear/low-space MPC (Theorems 1.2–1.3).
	ModelMPC Model = "mpc"
	// ModelLowSpace is sublinear-space MPC (Theorem 1.4); instances must be
	// (deg+1)-list instances.
	ModelLowSpace Model = "lowspace"
)

// Models lists the supported execution models in canonical order.
func Models() []Model { return []Model{ModelCClique, ModelMPC, ModelLowSpace} }

// ParseModel validates a model name.
func ParseModel(s string) (Model, error) {
	switch Model(s) {
	case ModelCClique, ModelMPC, ModelLowSpace:
		return Model(s), nil
	}
	return "", fmt.Errorf("ccolor: unknown model %q (want %q, %q, or %q)",
		s, ModelCClique, ModelMPC, ModelLowSpace)
}

// Options configures a Solve call. The zero value (and nil) means
// ModelCClique solving the coloring problem with paper-faithful defaults.
type Options struct {
	// Model picks the execution model; empty means ModelCClique.
	Model Model
	// Problem picks the registry problem to solve; empty means
	// problem.Coloring. Set problems (MIS, ruling sets) run on the
	// instance's graph and ignore its palettes.
	Problem problem.Kind
	// Beta is the ruling-set domination radius for problem.RulingSet; 0
	// means the registry default of 2. Ignored by other problems.
	Beta int
	// MIS overrides the derandomized-MIS knobs for the MIS and RulingSet
	// problems; nil means mis.DefaultParams.
	MIS *mis.Params
	// Params overrides the core-algorithm knobs for ModelCClique / ModelMPC;
	// nil means core.DefaultParams.
	Params *core.Params
	// LowSpace overrides the Theorem 1.4 knobs for ModelLowSpace; nil means
	// lowspace.DefaultParams.
	LowSpace *lowspace.Params
	// MPCSpaceFactor scales per-machine space for ModelMPC (words per unit
	// of node weight); 0 means the default of 64.
	MPCSpaceFactor int
	// Trace attaches a telemetry recorder to the solve: the Report gains a
	// Telemetry span trace (per-phase wall-clock, rounds, words, loads,
	// recursion depth). Off by default; a disabled recorder costs nothing
	// on the round hot path. Tracing never changes the solve result, so it
	// does not participate in serving-layer cache keys.
	Trace bool
}

// Report is the unified, model-independent result of a Solve call: the
// verified coloring plus the full cost ledger of the run. Every field is a
// deterministic function of (instance, options) — the serving layer relies
// on this to cache and replay results byte-for-byte — and none of it
// aliases session state, so a Report outlives the session that produced it.
type Report struct {
	Model Model
	// Problem is the registry problem this report answers (never empty;
	// an unset Options.Problem reports problem.Coloring).
	Problem problem.Kind
	// Coloring is the solution of coloring solves; nil for set problems.
	Coloring graph.Coloring
	// Set is the solution of set-problem solves (MIS, ruling sets): one
	// membership flag per node. Nil for coloring solves.
	Set []bool
	// SetSize is the number of set members (zero for coloring solves).
	SetSize int
	// Beta is the domination radius a ruling-set solve guaranteed (zero
	// for other problems).
	Beta int
	// Rounds is the model round count: executed simulator rounds for
	// ModelCClique/ModelMPC, the parallel-composition critical path for
	// ModelLowSpace.
	Rounds int
	// WordsMoved is the total message traffic of the run in machine words.
	WordsMoved int64
	// MaxNodeLoad is the maximum words any worker sent or received in one
	// round.
	MaxNodeLoad int64
	// PhaseProfile attributes executed rounds, words moved and peak
	// per-round loads to algorithm phases. For ModelLowSpace it merges the
	// main cluster with every MIS pool cluster incarnation.
	PhaseProfile map[string]fabric.PhaseStats

	// Machines / Space / PeakSpace are MPC-family telemetry (zero for
	// ModelCClique).
	Machines  int
	Space     int64
	PeakSpace int64

	// ColorsUsed is the number of distinct colors in the coloring,
	// precomputed at solve time so serving a cached Report stays O(1).
	ColorsUsed int

	// Memory is the per-solve memory budget: peak workspace words per
	// layer. Always populated.
	Memory MemoryBudget

	// Trace is the recursion telemetry for ModelCClique / ModelMPC runs.
	Trace *core.Trace
	// LowTrace is the telemetry for ModelLowSpace runs.
	LowTrace *lowspace.Trace
	// Telemetry is the per-phase span trace of this run; nil unless
	// Options.Trace was set. The serving layer detaches it from cached
	// Reports and retains it behind a per-job trace ID.
	Telemetry *telemetry.Trace
}

// MemoryBudget is a solve's peak memory accounting in 64-bit words, broken
// down by layer. It makes the large-instance tier auditable: scaling tests
// assert per-layer budgets — in particular the sublinear-space model's
// 𝔫^φ-per-machine contract — instead of guessing from process RSS.
type MemoryBudget struct {
	// InstanceWords is the canonical encoded size of the input: the graph
	// words (2 + (n+1) + 2m) plus, for coloring solves, the palette words
	// (n + Σp(v)). Set-problem solves ignore palettes and charge only the
	// graph.
	InstanceWords int64
	// WorkspaceWords is the coloring solver's retained workspace after the
	// solve — the dominant resident term of coloring runs. For
	// ModelCClique/ModelMPC it is the core workspace (palette slabs,
	// candidate masks, aggregation buffers, the collect gather's tables
	// and slabs); for ModelLowSpace the low-space session's adjacency and
	// palette slabs, pool scratch and MIS reduction, and the MIS workspace
	// with its per-batch priority table (n·BatchWidth words at the largest
	// pool). Zero for set problems.
	WorkspaceWords int64
	// PeakRoundWords is the largest total word volume any single fabric
	// round moved — the transient delivery footprint of the solve.
	PeakRoundWords int64
	// DeliveryScratchWords is the largest scratch any single round's
	// delivery used: the sender blocks' per-destination and per-group rows
	// and combining accumulators. It grows with the pool width, one row set
	// per block. Zero for ModelLowSpace coloring, whose pool clusters do
	// not report it.
	DeliveryScratchWords int64
	// MachineSpace and PeakMachineWords are the MPC-family per-machine
	// budget and measured peak per-machine residency (zero for
	// ModelCClique). The backends hard-fail any round that would push a
	// machine past its budget, so PeakMachineWords ≤ MachineSpace is
	// enforced, not just observed.
	MachineSpace     int64
	PeakMachineWords int64
	// SublinearBound is ModelLowSpace's per-machine space contract in
	// words (c·𝔫^φ for the configured φ < 1; zero for the other models).
	// It equals MachineSpace for that model and exists as its own field so
	// scaling tests can assert sublinearity without model switches.
	SublinearBound int64
}

// Session is a reusable per-model solver. It is not safe for concurrent
// use; engine.Solve parks one idle session per model, and serving workers
// pin one each.
type Session struct {
	model Model

	// cclique / mpc keep one simulator each, re-armed in place per solve;
	// both share the core solver workspace.
	nw *cclique.Network
	cl *mpc.Cluster
	cw core.Workspace

	// lowspace keeps its own session (solver-persistent slabs, pool
	// workspace, recycled clusters, and the chunk placement the
	// sublinear-space set problems pack node data with).
	ls *lowspace.Session

	// Set-problem state: the derandomized-MIS and ruling-set workspaces,
	// retained like the coloring workspaces so warm set-problem solves
	// allocate nothing on the solver path.
	misWS mis.Workspace
	rsWS  mis.RulingWorkspace

	colorScratch []graph.Color // countColors sort buffer

	solves uint64
}

// NewSession returns an empty session for the model; the first Solve sizes
// it.
func NewSession(model Model) (*Session, error) {
	if model == "" {
		model = ModelCClique
	}
	if _, err := ParseModel(string(model)); err != nil {
		return nil, err
	}
	return &Session{model: model}, nil
}

// Model returns the execution model this session runs.
func (s *Session) Model() Model { return s.model }

// Solves returns how many solves the session has executed — solves beyond
// the first ran warm, paying no simulator or workspace construction.
func (s *Session) Solves() uint64 { return s.solves }

// Reset re-arms the session explicitly after an aborted or failed solve.
// It is never required between successful solves — Solve re-dimensions all
// retained state from its instance — but gives callers recovering from an
// error a way to assert a clean slate: simulator ledgers are cleared and
// the next solve behaves exactly like the first on a fresh session.
func (s *Session) Reset() {
	if s.nw != nil {
		s.nw.Reset(s.nw.Workers())
	}
	if s.cl != nil {
		s.cl.Ledger().Reset()
	}
}

// Release stops the goroutines the session keeps parked between solves:
// its simulators' staging workers and the core workspace's candidate-table
// pool. Worker pools have no finalizer, so whoever retires a session must
// call Release or the parked goroutines outlive it. The session keeps its
// memory and stays usable; the next solve respawns the workers.
func (s *Session) Release() {
	if s.nw != nil {
		s.nw.Release()
	}
	if s.cl != nil {
		s.cl.Release()
	}
	if s.ls != nil {
		s.ls.Release()
	}
	s.cw.Release()
}

// Solve runs the session's model on an instance and returns a verified
// solution with full cost accounting. opts.Model must be empty or match
// the session's model; opts.Problem selects the registry problem (empty
// means coloring). Every problem runs on the session's warm backend state.
func (s *Session) Solve(inst *graph.Instance, opts *Options) (*Report, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.Model != "" && o.Model != s.model {
		return nil, fmt.Errorf("ccolor: session runs %q, options request %q", s.model, o.Model)
	}
	spec, err := problem.Lookup(string(o.Problem))
	if err != nil {
		return nil, fmt.Errorf("ccolor: %w", err)
	}
	s.solves++
	switch spec.Kind {
	case problem.Coloring:
		if err := inst.CheckPalettes(); err != nil {
			return nil, fmt.Errorf("ccolor: %w", err)
		}
		if s.model == ModelLowSpace {
			return s.solveLowSpace(inst, &o)
		}
		return s.solveColoring(inst, &o)
	case problem.MIS, problem.RulingSet:
		return s.solveSet(spec, inst, &o)
	}
	return nil, fmt.Errorf("ccolor: problem %q has no solver", spec.Kind)
}

// armFabric re-arms the session's congested clique or linear-space MPC
// cluster in place for an n-node solve (warm ≡ cold) and returns it with
// its per-pair word budget. weight is a node's resident words on an MPC
// machine; the clique ignores it.
func (s *Session) armFabric(n int, weight func(v int) int64, o *Options) (fabric.Fabric, int, error) {
	if s.model == ModelCClique {
		if s.nw == nil {
			s.nw = cclique.New(n)
		} else {
			s.nw.Reset(n)
		}
		return s.nw, s.nw.MsgWords(), nil
	}
	factor := o.MPCSpaceFactor
	if factor <= 0 {
		factor = 64
	}
	if s.cl == nil {
		cl, err := mpc.NewLinear(n, weight, factor)
		if err != nil {
			return nil, 0, err
		}
		s.cl = cl
	} else if err := s.cl.ResetLinear(n, weight, factor); err != nil {
		return nil, 0, err
	}
	return s.cl, 8, nil
}

// traceLedger attaches a fresh trace recorder to the solve's ledger when
// o.Trace is set; it returns nil otherwise, which every downstream
// telemetry call treats as "tracing off". The ledger was just Reset (or
// newly built), so no detach bookkeeping is needed: the next solve's Reset
// drops it, and Finish makes the recorder inert the moment the Report is
// assembled.
func traceLedger(led *fabric.Ledger, o *Options) *telemetry.Recorder {
	if !o.Trace {
		return nil
	}
	rec := telemetry.NewRecorder()
	led.SetRecorder(rec)
	return rec
}

// fabricReport starts the Report of a solve that ran on fabric f: the
// rounds, words, loads and phase profile its ledger counted, an MPC
// cluster's machines and space, and the telemetry trace. The solve then
// adds its solution and the rest of its memory budget.
func (s *Session) fabricReport(kind problem.Kind, f fabric.Fabric, rec *telemetry.Recorder) *Report {
	led := f.Ledger()
	rep := &Report{
		Model:        s.model,
		Problem:      kind,
		Rounds:       led.Rounds(),
		WordsMoved:   led.WordsMoved(),
		MaxNodeLoad:  max(led.MaxSendLoad(), led.MaxRecvLoad()),
		PhaseProfile: led.PhaseProfile(),
		Memory: MemoryBudget{
			PeakRoundWords:       led.PeakRoundWords(),
			DeliveryScratchWords: led.PeakScratchWords(),
		},
		Telemetry: rec.Finish(string(s.model)),
	}
	if cl, ok := f.(*mpc.Cluster); ok {
		rep.Machines, rep.Space, rep.PeakSpace = cl.Machines(), cl.Space(), cl.PeakMachineSpace()
		rep.Memory.MachineSpace, rep.Memory.PeakMachineWords = rep.Space, rep.PeakSpace
	}
	return rep
}

// solveColoring runs the core algorithm on the session's clique or
// linear-space MPC cluster, where a node weighs its adjacency, its palette
// and two bookkeeping words.
func (s *Session) solveColoring(inst *graph.Instance, o *Options) (*Report, error) {
	p := core.DefaultParams()
	if o.Params != nil {
		p = *o.Params
	}
	g := inst.G
	f, pairWords, err := s.armFabric(g.N(), func(v int) int64 {
		return int64(g.Degree(int32(v)) + len(inst.Palettes[v]) + 2)
	}, o)
	if err != nil {
		return nil, err
	}
	rec := traceLedger(f.Ledger(), o)
	col, tr, err := core.SolveWS(f, pairWords, inst, p, &s.cw)
	if err != nil {
		return nil, err
	}
	if err := verify.ListColoring(inst, col); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	rep := s.fabricReport(problem.Coloring, f, rec)
	rep.Coloring, rep.ColorsUsed, rep.Trace = col, s.countColors(col), tr
	rep.Memory.InstanceWords = graph.InstanceWordCount(inst)
	rep.Memory.WorkspaceWords = s.cw.MemoryWords()
	return rep, nil
}

func (s *Session) solveLowSpace(inst *graph.Instance, o *Options) (*Report, error) {
	p := lowspace.DefaultParams()
	if o.LowSpace != nil {
		p = *o.LowSpace
	}
	if s.ls == nil {
		s.ls = lowspace.NewSession()
	}
	var rec *telemetry.Recorder
	if o.Trace {
		rec = telemetry.NewRecorder()
		s.ls.SetRecorder(rec)
		// Clear the session's recorder slot afterwards: the lowspace solver
		// attaches it to each cluster ledger per solve, so a finished (inert)
		// recorder must not linger into the next, untraced solve.
		defer s.ls.SetRecorder(nil)
	}
	col, tr, err := s.ls.Solve(inst, p)
	if err != nil {
		return nil, err
	}
	if err := verify.ListColoring(inst, col); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	return &Report{
		Model:        ModelLowSpace,
		Problem:      problem.Coloring,
		Coloring:     col,
		ColorsUsed:   s.countColors(col),
		Rounds:       tr.CriticalRounds,
		WordsMoved:   tr.WordsMoved,
		MaxNodeLoad:  tr.PeakMachineWords,
		PhaseProfile: tr.Phases,
		Machines:     tr.Machines,
		Space:        tr.SpaceWords,
		PeakSpace:    tr.PeakMachineWords,
		Memory: MemoryBudget{
			InstanceWords:    graph.InstanceWordCount(inst),
			WorkspaceWords:   s.ls.MemoryWords(),
			PeakRoundWords:   tr.PeakRoundWords,
			MachineSpace:     tr.SpaceWords,
			PeakMachineWords: tr.PeakMachineWords,
			SublinearBound:   tr.SpaceWords,
		},
		LowTrace:  tr,
		Telemetry: rec.Finish(string(ModelLowSpace)),
	}, nil
}

// countColors counts distinct colors by sorting a session-retained scratch
// copy — zero allocation on the warm report path instead of a per-solve
// slice or map.
func (s *Session) countColors(c graph.Coloring) int {
	scratch := s.colorScratch
	if cap(scratch) < len(c) {
		scratch = make([]graph.Color, 0, len(c))
	}
	scratch = scratch[:0]
	for _, x := range c {
		if x != graph.NoColor {
			scratch = append(scratch, x)
		}
	}
	slices.Sort(scratch)
	n := 0
	for i, x := range scratch {
		if i == 0 || x != scratch[i-1] {
			n++
		}
	}
	s.colorScratch = scratch
	return n
}
