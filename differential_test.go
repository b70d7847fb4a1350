package ccolor_test

// The property/differential harness. The paper's core claim is that one
// deterministic coloring procedure works across three execution models;
// these tests check it on the whole scenario registry rather than the
// hand-picked golden instances:
//
//   - every scenario instance is canonical (two builds are bit-identical),
//   - every backend's coloring passes the full verify oracle,
//   - every backend is run-to-run deterministic (coloring and ledger),
//   - the congested-clique and linear-MPC backends — the same algorithm on
//     different substrates — produce the *identical* coloring,
//   - the low-space backend, a different algorithm, is allowed to differ
//     but must still verify on the same instance.
//
// FuzzScenarioDifferential widens the corpus beyond fixed seeds: any
// (scenario, n, seed) the fuzzer reaches must uphold the same properties.

import (
	"runtime"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

var allModels = []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}

// solveAll runs one instance through every backend, asserting per-model
// verification and run-to-run determinism, and returns the agreement.
func solveAll(t *testing.T, spec *scenario.Spec, n int, seed uint64) *verify.Agreement {
	t.Helper()
	inst, err := spec.Instance(n, seed)
	if err != nil {
		t.Fatalf("%s(n=%d, seed=%d): %v", spec.Name, n, seed, err)
	}
	inst2, err := spec.Instance(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if verify.InstanceFingerprint(inst) != verify.InstanceFingerprint(inst2) {
		t.Fatalf("%s(n=%d, seed=%d): rebuild changed the canonical encoding",
			spec.Name, n, seed)
	}

	runs := make([]verify.ModelColoring, 0, len(allModels))
	for _, m := range allModels {
		// Space factor 16 keeps the MPC run genuinely distributed at these
		// sizes; the other models ignore the knob.
		opts := &ccolor.Options{Model: m, MPCSpaceFactor: 16}
		rep, err := ccolor.Solve(inst, opts)
		if err != nil {
			t.Fatalf("%s(n=%d, seed=%d) on %s: %v", spec.Name, n, seed, m, err)
		}
		rep2, err := ccolor.Solve(inst, opts)
		if err != nil {
			t.Fatalf("%s re-solve on %s: %v", spec.Name, m, err)
		}
		if verify.ColoringFingerprint(rep.Coloring) != verify.ColoringFingerprint(rep2.Coloring) {
			t.Errorf("%s(n=%d, seed=%d) on %s: re-solve produced a different coloring",
				spec.Name, n, seed, m)
		}
		if rep.Rounds != rep2.Rounds || rep.WordsMoved != rep2.WordsMoved {
			t.Errorf("%s(n=%d, seed=%d) on %s: ledger drifted between runs (%d/%d vs %d/%d)",
				spec.Name, n, seed, m, rep.Rounds, rep.WordsMoved, rep2.Rounds, rep2.WordsMoved)
		}
		runs = append(runs, verify.ModelColoring{Model: string(m), Coloring: rep.Coloring})
	}

	a := verify.CrossModel(inst, runs)
	if verify.InstanceFingerprint(inst) != a.InstanceFP {
		t.Errorf("%s: solving mutated the instance", spec.Name)
	}
	if !a.Clean() {
		t.Errorf("%s(n=%d, seed=%d): verifier failures:\n%s", spec.Name, n, seed, a)
	}
	if a.ColoringFP[string(ccolor.ModelCClique)] != a.ColoringFP[string(ccolor.ModelMPC)] {
		t.Errorf("%s(n=%d, seed=%d): cclique and mpc disagree — same algorithm, different substrate:\n%s",
			spec.Name, n, seed, a)
	}
	return a
}

func TestScenarioDifferential(t *testing.T) {
	for _, spec := range scenario.All() {
		t.Run(spec.Name, func(t *testing.T) {
			for _, tc := range []struct {
				n    int
				seed uint64
			}{{48, 1}, {80, 2}} {
				solveAll(t, spec, tc.n, tc.seed)
			}
		})
	}
}

// solveAllSets is solveAll for the registry set problems: every backend
// solves (problem, instance), each solution passes the independent oracle,
// re-solves are byte-identical, and — since the derandomized seed selection
// is fabric-independent — all backends must produce the *identical* set.
func solveAllSets(t *testing.T, spec *scenario.Spec, n int, seed uint64, prob ccolor.Problem) {
	t.Helper()
	inst, err := spec.Instance(n, seed)
	if err != nil {
		t.Fatalf("%s(n=%d, seed=%d): %v", spec.Name, n, seed, err)
	}
	runs := make([]verify.ModelSet, 0, len(allModels))
	beta := 0
	for _, m := range allModels {
		opts := &ccolor.Options{Model: m, Problem: prob, MPCSpaceFactor: 16}
		rep, err := ccolor.Solve(inst, opts)
		if err != nil {
			t.Fatalf("%s/%s(n=%d, seed=%d) on %s: %v", prob, spec.Name, n, seed, m, err)
		}
		rep2, err := ccolor.Solve(inst, opts)
		if err != nil {
			t.Fatalf("%s/%s re-solve on %s: %v", prob, spec.Name, m, err)
		}
		if verify.SetFingerprint(rep.Set) != verify.SetFingerprint(rep2.Set) {
			t.Errorf("%s/%s(n=%d, seed=%d) on %s: re-solve produced a different set",
				prob, spec.Name, n, seed, m)
		}
		beta = rep.Beta
		runs = append(runs, verify.ModelSet{Model: string(m), Set: rep.Set})
	}
	check := verify.MIS
	if prob == ccolor.ProblemRulingSet {
		b := beta
		check = func(g *graph.Graph, set []bool) error { return verify.RulingSet(g, set, b) }
	}
	a := verify.CrossModelSets(inst, runs, check)
	if !a.Clean() {
		t.Errorf("%s/%s(n=%d, seed=%d): verifier failures:\n%s", prob, spec.Name, n, seed, a)
	}
	if !a.Unanimous() {
		t.Errorf("%s/%s(n=%d, seed=%d): backends disagree:\n%s", prob, spec.Name, n, seed, a)
	}
}

func TestScenarioProblemDifferential(t *testing.T) {
	for _, spec := range scenario.All() {
		t.Run(spec.Name, func(t *testing.T) {
			for _, prob := range []ccolor.Problem{ccolor.ProblemMIS, ccolor.ProblemRulingSet} {
				solveAllSets(t, spec, 48, 1, prob)
				solveAllSets(t, spec, 80, 2, prob)
			}
		})
	}
}

// TestScaleDifferentialSmoke is the large-instance tier's correctness gate:
// one 2¹⁶-node gnp instance, every backend, every registry problem, each
// solution checked by the independent oracle. One solve per (model, problem)
// — run-to-run determinism is already pinned at small n, and a single pass
// keeps the tier affordable under -race. The memory budget must be
// populated, and the low-space backend must honor its per-machine
// sublinear-space contract at a size where "sublinear" is unambiguous.
func TestScaleDifferentialSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2¹⁶-node differential smoke skipped in -short mode")
	}
	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 1 << 16, 11
	inst, err := spec.Instance(n, seed)
	if err != nil {
		t.Fatal(err)
	}

	checkMemory := func(t *testing.T, m ccolor.Model, rep *ccolor.Report) {
		t.Helper()
		if rep.Memory.InstanceWords == 0 {
			t.Errorf("%s: memory budget not populated: %+v", m, rep.Memory)
		}
		if m != ccolor.ModelLowSpace {
			return
		}
		if rep.Memory.SublinearBound == 0 ||
			rep.Memory.PeakMachineWords > rep.Memory.SublinearBound {
			t.Errorf("lowspace per-machine peak %d exceeds bound %d",
				rep.Memory.PeakMachineWords, rep.Memory.SublinearBound)
		}
		if rep.Memory.SublinearBound > int64(n)/8 {
			t.Errorf("lowspace bound %d not sublinear at n=%d",
				rep.Memory.SublinearBound, n)
		}
	}

	t.Run("coloring", func(t *testing.T) {
		runs := make([]verify.ModelColoring, 0, len(allModels))
		for _, m := range allModels {
			rep, err := ccolor.Solve(inst, &ccolor.Options{Model: m})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			checkMemory(t, m, rep)
			runs = append(runs, verify.ModelColoring{Model: string(m), Coloring: rep.Coloring})
		}
		a := verify.CrossModel(inst, runs)
		if !a.Clean() {
			t.Errorf("verifier failures at n=2^16:\n%s", a)
		}
		if a.ColoringFP[string(ccolor.ModelCClique)] != a.ColoringFP[string(ccolor.ModelMPC)] {
			t.Errorf("cclique and mpc disagree at n=2^16:\n%s", a)
		}
	})
	// An MPC round builds no inboxes, runs no combining round and has no
	// pair budget, so its delivery scratch is only its sender blocks' group
	// rows: 3 words per machine per block, at most one block per pool
	// worker (GOMAXPROCS). At the default space factor this instance fits
	// on one machine, where the bound would hold trivially, so the solve
	// runs at space factor 8 (5 machines). Measured on a 2-vCPU box at
	// GOMAXPROCS 2: 30 words.
	t.Run("mpc-delivery-scratch", func(t *testing.T) {
		rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelMPC, MPCSpaceFactor: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.ListColoring(inst, rep.Coloring); err != nil {
			t.Fatal(err)
		}
		if rep.Machines < 2 || rep.WordsMoved == 0 {
			t.Fatalf("%d machines moved %d words; the bound needs cross-machine rounds", rep.Machines, rep.WordsMoved)
		}
		bound := 3 * int64(runtime.GOMAXPROCS(0)) * int64(rep.Machines)
		t.Logf("%d machines, %d words moved, delivery scratch %d words (bound %d)",
			rep.Machines, rep.WordsMoved, rep.Memory.DeliveryScratchWords, bound)
		if rep.Memory.DeliveryScratchWords == 0 || rep.Memory.DeliveryScratchWords > bound {
			t.Errorf("delivery scratch %d words outside (0, 3·GOMAXPROCS·machines = %d]",
				rep.Memory.DeliveryScratchWords, bound)
		}
	})
	for _, prob := range []ccolor.Problem{ccolor.ProblemMIS, ccolor.ProblemRulingSet} {
		t.Run(string(prob), func(t *testing.T) {
			runs := make([]verify.ModelSet, 0, len(allModels))
			beta := 0
			for _, m := range allModels {
				rep, err := ccolor.Solve(inst, &ccolor.Options{Model: m, Problem: prob})
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				checkMemory(t, m, rep)
				beta = rep.Beta
				runs = append(runs, verify.ModelSet{Model: string(m), Set: rep.Set})
			}
			check := verify.MIS
			if prob == ccolor.ProblemRulingSet {
				b := beta
				check = func(g *graph.Graph, set []bool) error { return verify.RulingSet(g, set, b) }
			}
			a := verify.CrossModelSets(inst, runs, check)
			if !a.Clean() {
				t.Errorf("%s verifier failures at n=2^16:\n%s", prob, a)
			}
			if !a.Unanimous() {
				t.Errorf("%s backends disagree at n=2^16:\n%s", prob, a)
			}
		})
	}
}

// FuzzScenarioDifferential seeds the corpus with every registry scenario;
// the fuzzer then explores (scenario, n, seed) space. Under `go test` only
// the seed corpus runs (smoke mode, deterministic); under -fuzz it hunts
// for instances that break verification, determinism, or agreement.
func FuzzScenarioDifferential(f *testing.F) {
	for i, name := range scenario.Names() {
		f.Add(i, uint16(40+4*i), uint64(i)+1)
		_ = name
	}
	specs := scenario.All()
	f.Fuzz(func(t *testing.T, which int, rawN uint16, seed uint64) {
		if which < 0 {
			which = -(which + 1)
		}
		spec := specs[which%len(specs)]
		// Clamp to small instances: each exec runs six solves (three
		// models, twice each); the properties are size-independent.
		n := scenario.MinNodes + int(rawN)%81
		solveAll(t, spec, n, seed)
	})
}
