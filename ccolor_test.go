package ccolor_test

import (
	"testing"

	"ccolor"
)

func TestFacadeDeltaPlus1(t *testing.T) {
	g, err := ccolor.GNP(300, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || !res.Coloring.Complete() {
		t.Fatalf("bad result: rounds=%d", res.Rounds)
	}
	if res.MaxNodeLoad <= 0 {
		t.Fatal("no load recorded")
	}
	if res.Trace.MaxRecursionDepth() > 9 {
		t.Fatalf("depth %d exceeds 9", res.Trace.MaxRecursionDepth())
	}
}

func TestFacadeListColoring(t *testing.T) {
	g, err := ccolor.RandomRegular(200, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ccolor.ListInstance(g, 1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := ccolor.DefaultParams()
	res, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelCClique, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if err := ccolor.VerifyListColoring(inst, res.Coloring); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMPC(t *testing.T) {
	g, err := ccolor.GNP(250, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := ccolor.DeltaPlus1Instance(g)
	res, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelMPC})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakSpace > res.Space {
		t.Fatalf("peak %d exceeds machine space %d", res.PeakSpace, res.Space)
	}
	if res.Machines < 1 {
		t.Fatal("no machines")
	}
}

func TestFacadeCompactMPC(t *testing.T) {
	g, err := ccolor.GNP(150, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := ccolor.DefaultParams()
	p.CompactPalettes = true
	res, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), &ccolor.Options{Model: ccolor.ModelMPC, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Coloring.Complete() {
		t.Fatal("incomplete coloring")
	}
}

func TestFacadeLowSpace(t *testing.T) {
	g, err := ccolor.PowerLaw(300, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ccolor.DegPlus1Instance(g, 1<<16, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelLowSpace})
	if err != nil {
		t.Fatal(err)
	}
	col, tr := res.Coloring, res.LowTrace
	if !col.Complete() {
		t.Fatal("incomplete coloring")
	}
	if tr.PeakMachineWords > tr.SpaceWords {
		t.Fatalf("peak %d exceeds 𝔰=%d", tr.PeakMachineWords, tr.SpaceWords)
	}
}

// TestSolveRejectsNegativeColor: a hand-built palette holding a color below
// 0 bypasses NewPalette's check; the clique and MPC solvers must reject it
// with an error instead of indexing the packed domain out of range.
func TestSolveRejectsNegativeColor(t *testing.T) {
	g, err := ccolor.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst := &ccolor.Instance{G: g, Palettes: []ccolor.Palette{{-5, 1, 2}, {1, 2, 3}, {1, 2, 3}}}
	for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC} {
		if _, err := ccolor.Solve(inst, &ccolor.Options{Model: model}); err == nil {
			t.Errorf("%s: palette {-5, 1, 2} accepted", model)
		}
	}
}
