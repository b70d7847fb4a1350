package engine_test

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/problem"
	"ccolor/internal/scenario"
)

// reports must match field-for-field: the session contract is that a warm
// solve is byte-identical to a cold one, coloring and ledger included.
func sameReport(t *testing.T, label string, got, want *engine.Report) {
	t.Helper()
	if !slices.Equal(got.Coloring, want.Coloring) {
		t.Errorf("%s: coloring differs from fresh-session solve", label)
	}
	if got.Rounds != want.Rounds || got.WordsMoved != want.WordsMoved {
		t.Errorf("%s: ledger (%d rounds, %d words) != fresh (%d rounds, %d words)",
			label, got.Rounds, got.WordsMoved, want.Rounds, want.WordsMoved)
	}
	if got.MaxNodeLoad != want.MaxNodeLoad {
		t.Errorf("%s: MaxNodeLoad %d != %d", label, got.MaxNodeLoad, want.MaxNodeLoad)
	}
	if got.ColorsUsed != want.ColorsUsed {
		t.Errorf("%s: ColorsUsed %d != %d", label, got.ColorsUsed, want.ColorsUsed)
	}
	if got.Machines != want.Machines || got.Space != want.Space || got.PeakSpace != want.PeakSpace {
		t.Errorf("%s: machine telemetry (%d, %d, %d) != (%d, %d, %d)", label,
			got.Machines, got.Space, got.PeakSpace, want.Machines, want.Space, want.PeakSpace)
	}
	if !maps.Equal(got.PhaseProfile, want.PhaseProfile) {
		t.Errorf("%s: PhaseProfile %v != %v", label, got.PhaseProfile, want.PhaseProfile)
	}
	// Memory's deterministic fields; WorkspaceWords and DeliveryScratchWords
	// depend on the session's history and the pool width.
	gm, wm := got.Memory, want.Memory
	gm.WorkspaceWords, wm.WorkspaceWords = 0, 0
	gm.DeliveryScratchWords, wm.DeliveryScratchWords = 0, 0
	if gm != wm {
		t.Errorf("%s: Memory %+v != %+v (workspace and delivery scratch not compared)", label, gm, wm)
	}
}

// TestSessionCrossInstanceIsolation is the stale-workspace leak detector:
// solving scenario A, then B, then A again on ONE session must reproduce
// fresh-session solves exactly, for every registry family on every
// backend. Any retained state that survives re-dimensioning — a stale
// stamp, an uncleared palette slab view, a leftover call registry entry —
// shows up here as a coloring or ledger divergence.
func TestSessionCrossInstanceIsolation(t *testing.T) {
	for _, spec := range scenario.All() {
		for _, model := range engine.Models() {
			t.Run(spec.Name+"/"+string(model), func(t *testing.T) {
				// B is both a different shape and a different size than A,
				// so every per-node buffer gets re-dimensioned between the
				// first and third solve.
				instA, err := spec.Instance(64, 1)
				if err != nil {
					t.Fatal(err)
				}
				instB, err := spec.Instance(48, 2)
				if err != nil {
					t.Fatal(err)
				}
				opts := &engine.Options{Model: model, MPCSpaceFactor: 16}
				fresh := func(inst *graph.Instance) *engine.Report {
					s, err := engine.NewSession(model)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := s.Solve(inst, opts)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				wantA, wantB := fresh(instA), fresh(instB)

				sess, err := engine.NewSession(model)
				if err != nil {
					t.Fatal(err)
				}
				for i, step := range []struct {
					inst *graph.Instance
					want *engine.Report
					name string
				}{{instA, wantA, "A#1"}, {instB, wantB, "B"}, {instA, wantA, "A#2"}} {
					got, err := sess.Solve(step.inst, opts)
					if err != nil {
						t.Fatalf("solve %d (%s): %v", i, step.name, err)
					}
					sameReport(t, step.name, got, step.want)
				}
				if sess.Solves() != 3 {
					t.Errorf("session counted %d solves, want 3", sess.Solves())
				}
			})
		}
	}
}

// TestSessionModelMismatch: a session is bound to its model.
func TestSessionModelMismatch(t *testing.T) {
	s, err := engine.NewSession(engine.ModelCClique)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.GNP(16, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(graph.DeltaPlus1Instance(g), &engine.Options{Model: engine.ModelMPC}); err == nil {
		t.Fatal("cclique session accepted an mpc solve")
	}
}

// TestPooledSolveMatchesSession: the package-level pooled Solve and an
// explicit session produce identical reports (the facade contract).
func TestPooledSolveMatchesSession(t *testing.T) {
	g, err := graph.GNP(64, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	for _, model := range []engine.Model{engine.ModelCClique, engine.ModelMPC} {
		opts := &engine.Options{Model: model, MPCSpaceFactor: 16}
		sess, err := engine.NewSession(model)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // repeated pooled solves reuse warm sessions
			got, err := engine.Solve(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, string(model), got, want)
		}
	}
}

// TestPooledSolveConcurrentCallers: concurrent facade callers each solve
// on their own session — a parked one or a new one — and every report
// matches a fresh session's.
func TestPooledSolveConcurrentCallers(t *testing.T) {
	g, err := graph.GNP(64, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := graph.DeltaPlus1Instance(g)
	for _, model := range engine.Models() {
		opts := &engine.Options{Model: model, MPCSpaceFactor: 16}
		if model == engine.ModelLowSpace {
			opts.Problem = problem.MIS // the Δ+1 instance is not a deg+1 list instance
		}
		sess, err := engine.NewSession(model)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		sess.Release()
		reps := make([]*engine.Report, 4*3)
		errs := make([]error, len(reps))
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					reps[c*3+i], errs[c*3+i] = engine.Solve(inst, opts)
				}
			}()
		}
		wg.Wait()
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameReport(t, string(model), rep, want)
			if !slices.Equal(rep.Set, want.Set) {
				t.Errorf("%s: set differs from fresh-session solve", model)
			}
		}
	}
}

// TestSessionResetAfterError: a session survives a failed solve — Reset
// re-arms it and the next solve matches a fresh session bit-for-bit.
func TestSessionResetAfterError(t *testing.T) {
	s, err := engine.NewSession(engine.ModelCClique)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.GNP(32, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := graph.DeltaPlus1Instance(g)
	if _, err := s.Solve(good, nil); err != nil {
		t.Fatal(err)
	}
	// A (deg+1)-list instance violates ColorReduce's (Δ+1)-list premise and
	// must fail cleanly.
	bad, err := graph.DegPlus1Instance(g, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(bad, nil); err == nil {
		t.Fatal("expected the (deg+1)-list instance to be rejected")
	}
	s.Reset()
	got, err := s.Solve(good, nil)
	if err != nil {
		t.Fatalf("post-reset solve: %v", err)
	}
	fresh, err := engine.NewSession(engine.ModelCClique)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "post-reset", got, want)
}

// TestSessionSizeCliff is the large-instance warm-session check: a session
// that has just solved a 2¹⁶-node instance must solve a 256-node instance
// byte-identically to a fresh session — and vice versa — on every backend.
// Retained state that is sized once and never re-dimensioned downward (a
// slab view, a stale palette word index, an over-wide routing table) shows up
// here, where the small-n isolation test cannot see it.
func TestSessionSizeCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("2¹⁶-node size-cliff test skipped in -short mode")
	}
	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	instA, err := spec.Instance(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	instB, err := spec.Instance(1<<16, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range engine.Models() {
		t.Run(string(model), func(t *testing.T) {
			opts := &engine.Options{Model: model}
			freshSess, err := engine.NewSession(model)
			if err != nil {
				t.Fatal(err)
			}
			wantA, err := freshSess.Solve(instA, opts)
			if err != nil {
				t.Fatal(err)
			}

			sess, err := engine.NewSession(model)
			if err != nil {
				t.Fatal(err)
			}
			gotA1, err := sess.Solve(instA, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "A#1", gotA1, wantA)
			repB, err := sess.Solve(instB, opts)
			if err != nil {
				t.Fatalf("2^16-node solve: %v", err)
			}
			// MPC may fit the whole instance on one machine (all traffic
			// intra-machine and free), so PeakRoundWords is only required
			// of the models that must communicate. Every delivery uses
			// scratch, but lowspace coloring does not report it.
			if mem := repB.Memory; mem.InstanceWords == 0 ||
				(model != engine.ModelMPC && mem.PeakRoundWords == 0) ||
				(model != engine.ModelLowSpace && mem.DeliveryScratchWords == 0) {
				t.Errorf("memory budget not populated at n=2^16: %+v", mem)
			}
			if model == engine.ModelLowSpace {
				if repB.Memory.SublinearBound == 0 ||
					repB.Memory.PeakMachineWords > repB.Memory.SublinearBound {
					t.Errorf("lowspace per-machine peak %d exceeds sublinear bound %d",
						repB.Memory.PeakMachineWords, repB.Memory.SublinearBound)
				}
				// The contract is per-machine space n^φ with φ < 1: at n=2¹⁶
				// the bound must be far below linear.
				if repB.Memory.SublinearBound > int64(instB.G.N())/8 {
					t.Errorf("lowspace bound %d not sublinear at n=%d",
						repB.Memory.SublinearBound, instB.G.N())
				}
			}
			gotA2, err := sess.Solve(instA, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, "A#2 (post-cliff)", gotA2, wantA)
		})
	}
}
