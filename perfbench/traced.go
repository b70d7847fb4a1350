package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/engine"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/lowspace"
	"ccolor/internal/mpc"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// closureTolerance is the share of a traced op's wall time that may stay
// unattributed to the measured layers before the closure check flags it.
const closureTolerance = 0.02

// roundTap times every fabric round a solve issues: the round's wall time,
// and staging as the span from round start to the return of the last stage
// callback. Delivery is the rest of the round. Records stay in memory.
type roundTap struct {
	led     *fabric.Ledger
	origin  time.Time // offsets in the records are relative to it
	rounds  []roundRecord
	pending atomic.Int64 // stage callbacks of the current round still running
	staged  atomic.Int64 // ns from round start to the last callback's return
}

type roundRecord struct {
	Phase   string `json:"phase"`
	StartNS int64  `json:"start_ns"`
	WallNS  int64  `json:"wall_ns"`
	StageNS int64  `json:"stage_ns"`
	Words   int64  `json:"words"`
}

type stageFunc = func(w int, sb *fabric.SendBuf)

func (t *roundTap) round(workers int, frameRound func(stageFunc) ([][]fabric.Msg, error), stage stageFunc) ([][]fabric.Msg, error) {
	phase, words := t.led.Phase(), t.led.WordsMoved()
	start := time.Now()
	t.pending.Store(int64(workers))
	t.staged.Store(0)
	inboxes, err := frameRound(func(w int, sb *fabric.SendBuf) {
		stage(w, sb)
		if t.pending.Add(-1) == 0 {
			t.staged.Store(int64(time.Since(start)))
		}
	})
	wall := time.Since(start)
	t.rounds = append(t.rounds, roundRecord{
		Phase:   phase,
		StartNS: start.Sub(t.origin).Nanoseconds(),
		WallNS:  wall.Nanoseconds(),
		StageNS: t.staged.Load(),
		Words:   t.led.WordsMoved() - words,
	})
	return inboxes, err
}

// stageMsgs stages a Round producer's messages as frames, as the backends'
// own Round methods do.
func stageMsgs(produce func(w int) []fabric.Msg) stageFunc {
	return func(w int, sb *fabric.SendBuf) {
		for _, m := range produce(w) {
			sb.Put(m.To, m.Words...)
		}
	}
}

// cliqueTap and clusterTap are the fabrics a traced solve runs on. Each
// embeds its backend, so the optional fabric extensions (Grouped,
// Capacitated) still promote, and routes every round through the tap.
type cliqueTap struct {
	*cclique.Network
	tap *roundTap
}

func (f *cliqueTap) FrameRound(stage stageFunc) ([][]fabric.Msg, error) {
	return f.tap.round(f.Workers(), f.Network.FrameRound, stage)
}

func (f *cliqueTap) Round(produce func(w int) []fabric.Msg) ([][]fabric.Msg, error) {
	return f.FrameRound(stageMsgs(produce))
}

type clusterTap struct {
	*mpc.Cluster
	tap *roundTap
}

func (f *clusterTap) FrameRound(stage stageFunc) ([][]fabric.Msg, error) {
	return f.tap.round(f.Workers(), f.Cluster.FrameRound, stage)
}

func (f *clusterTap) Round(produce func(w int) []fabric.Msg) ([][]fabric.Msg, error) {
	return f.FrameRound(stageMsgs(produce))
}

// directSolver runs one backend below the engine the way engine.Session
// does, so that a traced solve can put a roundTap between core.SolveWS and
// the fabric: a congested clique or linear MPC cluster re-armed per solve
// around one retained core workspace, or a retained low-space session.
type directSolver struct {
	model engine.Model
	nw    *cclique.Network
	cl    *mpc.Cluster
	ws    core.Workspace
	ls    *lowspace.Session
}

// The engine's defaults for the linear MPC cluster: words of machine space
// per unit of node weight, and the per-pair word budget core sees.
const (
	mpcSpaceFactor = 64
	mpcPairWords   = 8
)

// solved is one direct solve's output and the telemetry the benchmark
// reads from it.
type solved struct {
	col       graph.Coloring
	rounds    int
	words     int64
	start     time.Time
	dur       time.Duration // the core.SolveWS or lowspace Solve call alone
	core      *core.Trace
	low       *lowspace.Trace
	maxLoad   int64
	peakRound int64
	workspace int64
}

// solve runs inst; tap and rec may each be nil. Rounds and words are the
// ones engine.Report would carry.
func (d *directSolver) solve(inst *graph.Instance, tap *roundTap, rec *telemetry.Recorder) (*solved, error) {
	if d.model == engine.ModelLowSpace {
		if d.ls == nil {
			d.ls = lowspace.NewSession()
		}
		d.ls.SetRecorder(rec)
		defer d.ls.SetRecorder(nil)
		start := time.Now()
		col, tr, err := d.ls.Solve(inst, lowspace.DefaultParams())
		dur := time.Since(start)
		if err != nil {
			return nil, err
		}
		return &solved{col: col, rounds: tr.CriticalRounds, words: tr.WordsMoved, start: start, dur: dur,
			low: tr, maxLoad: tr.PeakMachineWords, peakRound: tr.PeakRoundWords}, nil
	}
	var (
		f   fabric.Fabric
		pw  int
		led *fabric.Ledger
	)
	n := inst.G.N()
	switch d.model {
	case engine.ModelCClique:
		if d.nw == nil {
			d.nw = cclique.New(n)
		} else {
			d.nw.Reset(n)
		}
		defer d.nw.Release()
		f, pw, led = d.nw, d.nw.MsgWords(), d.nw.Ledger()
		if tap != nil {
			f = &cliqueTap{d.nw, tap}
		}
	case engine.ModelMPC:
		g := inst.G
		weight := func(v int) int64 { return int64(g.Degree(int32(v)) + len(inst.Palettes[v]) + 2) }
		if d.cl == nil {
			cl, err := mpc.NewLinear(n, weight, mpcSpaceFactor)
			if err != nil {
				return nil, err
			}
			d.cl = cl
		} else if err := d.cl.ResetLinear(n, weight, mpcSpaceFactor); err != nil {
			return nil, err
		}
		defer d.cl.Release()
		f, pw, led = d.cl, mpcPairWords, d.cl.Ledger()
		if tap != nil {
			f = &clusterTap{d.cl, tap}
		}
	default:
		return nil, fmt.Errorf("no direct solver for model %q", d.model)
	}
	if tap != nil {
		tap.led = led
	}
	led.SetRecorder(rec)
	start := time.Now()
	col, tr, err := core.SolveWS(f, pw, inst, core.DefaultParams(), &d.ws)
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &solved{col: col, rounds: led.Rounds(), words: led.WordsMoved(), start: start, dur: dur, core: tr,
		maxLoad: max(led.MaxSendLoad(), led.MaxRecvLoad()), peakRound: led.PeakRoundWords(),
		workspace: d.ws.MemoryWords()}, nil
}

func (d *directSolver) release() {
	if d.nw != nil {
		d.nw.Release()
	}
	if d.cl != nil {
		d.cl.Release()
	}
	if d.ls != nil {
		d.ls.Release()
	}
	d.ws.Release()
}

// layerSpan is one layer call inside a traced op.
type layerSpan struct {
	Layer   string `json:"layer"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// opTrace is one traced op — generate, fingerprint, solve, verify — with
// its layer spans, its fabric rounds (children of the solve span) and the
// solve's phase spans from Options.Trace's recorder.
type opTrace struct {
	Op     int              `json:"op"`
	WallNS int64            `json:"wall_ns"`
	Layers []layerSpan      `json:"layers"`
	Rounds []roundRecord    `json:"rounds"`
	Phases *telemetry.Trace `json:"phases"`

	gen, fp, verify, wall time.Duration
	instWords             int64
	s                     *solved
}

// solveLayer names the span of the solve call for the workload's backend.
func solveLayer(m engine.Model) string {
	if m == engine.ModelLowSpace {
		return "lowspace.solve"
	}
	return "core.solve"
}

func (o *opTrace) roundTotals() (round, stage time.Duration, words int64) {
	for _, r := range o.Rounds {
		round += time.Duration(r.WallNS)
		stage += time.Duration(r.StageNS)
		words += r.Words
	}
	return round, stage, words
}

// unattributed is the op's wall time outside every measured layer: the
// fabric re-arm and release around the solve, the recorder, and the
// benchmark's own glue.
func (o *opTrace) unattributed() time.Duration {
	return o.wall - o.gen - o.fp - o.s.dur - o.verify
}

// traceOp runs one traced op end to end and checks its output against ref.
func traceOp(w *workload, d *directSolver, seed uint64, ref pin, i int) (*opTrace, error) {
	op := &opTrace{Op: i}
	start := time.Now()
	tap := &roundTap{origin: start}
	inst, err := w.build(w.n, seed)
	if err != nil {
		return nil, err
	}
	tGen := time.Now()
	ifp := verify.InstanceFingerprint(inst)
	tFP := time.Now()
	rec := telemetry.NewRecorder()
	s, err := d.solve(inst, tap, rec)
	if err != nil {
		return nil, err
	}
	op.Phases = rec.Finish(string(w.model))
	tSolved := time.Now()
	verr := verify.ListColoring(inst, s.col)
	end := time.Now()

	op.gen, op.fp, op.verify, op.wall = tGen.Sub(start), tFP.Sub(tGen), end.Sub(tSolved), end.Sub(start)
	op.WallNS, op.Rounds, op.s, op.instWords = op.wall.Nanoseconds(), tap.rounds, s, graph.InstanceWordCount(inst)
	span := func(layer string, from time.Time, dur time.Duration) {
		op.Layers = append(op.Layers, layerSpan{layer, "op", from.Sub(start).Nanoseconds(), dur.Nanoseconds()})
	}
	span("graph.generate", start, op.gen)
	span("hashing.fingerprint", tGen, op.fp)
	span(solveLayer(w.model), s.start, s.dur)
	span("verify.list_coloring", tSolved, op.verify)
	if verr != nil {
		return nil, verr
	}
	return op, sameOutput(pinOf(hexFP(ifp), s.col, s.rounds, s.words), ref)
}

// runTraced is the separate traced run of a library workload. A set-up's
// cold solve through the engine is the reference every later solve must
// reproduce. Then untraced and traced ops alternate until the window ends,
// so drift in machine speed reaches both alike: an untraced op is a bare
// solve on the direct solver; a traced op regenerates and fingerprints the
// instance, solves through the round tap with a telemetry recorder
// attached, and verifies. Per-layer metrics come from the traced op with
// the median wall time; tracing overhead compares the solve call in both
// kinds of op.
func runTraced(w *workload, seed uint64, window time.Duration) *tally {
	t := newTally()
	su, err := newSetUp(w, seed)
	if !t.op(err) {
		return t
	}
	su.sess.Release()
	inst, ref := su.inst, su.out
	_, perr := checkPin(w.name, seed, ref)
	t.problem(perr)
	printInput(w, seed, inst, ref)

	d := &directSolver{model: w.model}
	defer d.release()
	warm, err := d.solve(inst, nil, nil) // size the direct solver before timing it
	if err == nil {
		err = sameOutput(pinOf(ref.InstanceFP, warm.col, warm.rounds, warm.words), ref)
	}
	if !t.op(err) {
		return t
	}

	var (
		plain []float64
		ops   []*opTrace
	)
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			s, err := d.solve(inst, nil, nil)
			if err == nil {
				err = sameOutput(pinOf(ref.InstanceFP, s.col, s.rounds, s.words), ref)
			}
			if t.op(err) {
				plain = append(plain, s.dur.Seconds())
			}
			continue
		}
		op, err := traceOp(w, d, seed, ref, len(ops))
		if t.op(err) {
			ops = append(ops, op)
		}
	}
	if len(ops) == 0 {
		return t
	}
	t.problem(writeSpans(w.name, seed, ops))

	byWall := slices.Clone(ops)
	sort.Slice(byWall, func(i, j int) bool { return byWall[i].wall < byWall[j].wall })
	o := byWall[len(byWall)/2]
	traced := make([]float64, len(ops))
	for i, op := range ops {
		traced[i] = op.s.dur.Seconds()
	}
	overhead := ratio(median(traced), median(plain)) - 1
	printClosure(os.Stdout, ops, o)
	setLayerMetrics(t, o, len(ops))
	t.set("trace.overhead_frac", overhead,
		fmt.Sprintf("median solve call, %d traced vs %d untraced ops", len(traced), len(plain)))
	t.zeroMissing(perLayer, "not on this workload's path")
	return t
}

// setLayerMetrics sets every per-layer metric of a library workload from
// the representative traced op o.
func setLayerMetrics(t *tally, o *opTrace, nops int) {
	s := o.s
	round, stage, tapWords := o.roundTotals()
	rep := fmt.Sprintf("traced op with the median wall time, of %d", nops)
	t.set("graph.generate_s", o.gen.Seconds(), rep)
	t.set("graph.instance_words", float64(o.instWords), "")
	t.set("hashing.fingerprint_s", o.fp.Seconds(), rep)
	t.set("hashing.ns_per_word", ratio(float64(o.fp.Nanoseconds()), float64(o.instWords)), "")
	t.set("engine.workspace_words", float64(s.workspace), "core workspace after the solve")
	t.set("engine.peak_round_words", float64(s.peakRound), "")
	t.set("verify.list_coloring_s", o.verify.Seconds(), rep)
	t.set("trace.op_wall_s", o.wall.Seconds(), rep)
	t.set("trace.unattributed_s", o.unattributed().Seconds(), "op wall minus every measured layer")

	var depth, partitions, bad, waves, cands int
	var fabRounds int
	var fabWords int64
	if tr := s.core; tr != nil {
		depth, partitions, bad, waves, cands = tr.MaxRecursionDepth(), tr.TotalPartitions(), tr.TotalBadNodes(), tr.Waves, tr.TotalSeedCandidates()
		fabRounds, fabWords = s.rounds, s.words
		t.set("core.local_s", (s.dur - round).Seconds(), "solve call minus its fabric rounds")
	} else {
		lt := s.low
		depth, bad, cands = lt.Levels, lt.BadNodes, lt.SeedCandidates
		fabRounds, fabWords = lt.ExecutedRounds+lt.MISRounds, lt.WordsMoved+lt.MISWords
		t.set("lowspace.solve_s", s.dur.Seconds(), "rounds run on clusters the session owns: not split from outside")
	}
	t.set("core.recursion_depth", float64(depth), "")
	t.set("core.partitions", float64(partitions), "")
	t.set("core.bad_nodes", float64(bad), "")
	t.set("core.waves", float64(waves), "")
	t.set("derand.seed_candidates", float64(cands), "")
	t.set("derand.accept_ratio", ratio(float64(partitions), float64(cands)), "partitions per seed candidate")
	t.set("fabric.rounds", float64(fabRounds), "")
	t.set("fabric.words", float64(fabWords), "")
	t.set("fabric.words_per_round", ratio(float64(fabWords), float64(fabRounds)), "")
	walls := make([]float64, len(o.Rounds))
	for i, r := range o.Rounds {
		walls[i] = float64(r.WallNS) / 1e3
	}
	t.set("fabric.round_s", round.Seconds(), rep)
	t.set("fabric.stage_s", stage.Seconds(), "round start to the last stage callback's return")
	t.set("fabric.deliver_s", (round - stage).Seconds(), "rest of each round")
	t.set("fabric.deliver_ns_per_word", ratio(float64((round-stage).Nanoseconds()), float64(tapWords)), "")
	t.set("fabric.round_p50_us", median(walls), fmt.Sprintf("%d rounds", len(walls)))
	t.set("fabric.max_node_load", float64(s.maxLoad), "")

	if lt := s.low; lt != nil {
		t.set("lowspace.critical_rounds", float64(lt.CriticalRounds), "")
		t.set("lowspace.mis_rounds", float64(lt.MISRounds), "")
		t.set("lowspace.mis_words", float64(lt.MISWords), "")
		t.set("lowspace.space_headroom", ratio(float64(lt.PeakMachineWords), float64(lt.SpaceWords)), "peak machine words over the n^φ bound")
	}
	setPhaseMetrics(t, o.Phases)
}

// setPhaseMetrics folds a solve's phase spans into the phase.* metrics.
func setPhaseMetrics(t *tally, tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	for _, ps := range tr.ByPhase() {
		label := ps.Phase
		if label == "" {
			label = "unlabeled"
		}
		if !slices.Contains(phaseLabels, label) {
			label = "other"
		}
		base := phaseBase(label)
		t.values[base+"_s"] += ps.Duration.Seconds()
		t.values[base+".rounds"] += float64(ps.Rounds)
		t.values[base+".words"] += float64(ps.Words)
	}
}

// printClosure prints the layer table of the representative op o and
// checks, over every traced op, that the layers add up to the op's wall
// time within closureTolerance.
func printClosure(w io.Writer, ops []*opTrace, o *opTrace) {
	round, _, _ := o.roundTotals()
	wall := o.wall.Seconds()
	row := func(layer string, d time.Duration) {
		fmt.Fprintf(w, "  %-22s %10.6f s %6.1f%%\n", layer, d.Seconds(), 100*ratio(d.Seconds(), wall))
	}
	fmt.Fprintf(w, "\nlayer closure: traced op with the median wall time, of %d\n", len(ops))
	row("graph.generate", o.gen)
	row("hashing.fingerprint", o.fp)
	if o.s.core != nil {
		row("core.local", o.s.dur-round)
		row("fabric.round", round)
	} else {
		row("lowspace.solve", o.s.dur)
	}
	row("verify.list_coloring", o.verify)
	row("unattributed", o.unattributed())
	row("op wall", o.wall)
	worst := 0.0
	for _, op := range ops {
		worst = max(worst, ratio(op.unattributed().Seconds(), op.wall.Seconds()))
	}
	verdict := "ok"
	if worst > closureTolerance {
		verdict = "FLAGGED"
	}
	fmt.Fprintf(w, "closure %s: worst unattributed share %.2f%% over %d ops (tolerance %.0f%%)\n",
		verdict, 100*worst, len(ops), 100*closureTolerance)
}

// writeSpans writes the traced ops' spans to outDir once the run is done.
func writeSpans(name string, seed uint64, ops any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": name, "seed": seed, "ops": ops})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", path)
	return nil
}
