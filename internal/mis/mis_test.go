package mis

import (
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

func TestGreedyMIS(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (*graph.Graph, error)
	}{
		{"cycle", func() (*graph.Graph, error) { return graph.Cycle(11) }},
		{"complete", func() (*graph.Graph, error) { return graph.Complete(9) }},
		{"star", func() (*graph.Graph, error) { return graph.Star(17) }},
		{"gnp", func() (*graph.Graph, error) { return graph.GNP(120, 0.08, 5) }},
		{"grid", func() (*graph.Graph, error) { return graph.Grid(8, 9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, Greedy(g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveDet(t *testing.T) {
	g, err := graph.GNP(150, 0.06, 9)
	if err != nil {
		t.Fatal(err)
	}
	nw := cclique.New(g.N())
	in, st, err := SolveDet(nw, nw.MsgWords(), g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, in); err != nil {
		t.Fatal(err)
	}
	if st.Phases < 1 {
		t.Fatalf("expected at least one phase, got %d", st.Phases)
	}
	t.Logf("phases=%d candidates=%d rounds=%d", st.Phases, st.SeedCandidates, nw.Ledger().Rounds())
}

func TestReductionColoring(t *testing.T) {
	g, err := graph.GNP(80, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := graph.DegPlus1Instance(g, int64(4*g.MaxDegree()+4), 7)
	if err != nil {
		t.Fatal(err)
	}
	red := BuildReduction(inst)
	rg, err := red.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	in := Greedy(rg)
	col, err := red.ExtractColoring(in, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ListColoring(inst, col); err != nil {
		t.Fatal(err)
	}
}

func TestReductionDetMIS(t *testing.T) {
	g, err := graph.GNP(50, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := graph.DegPlus1Instance(g, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	red := BuildReduction(inst)
	nw := cclique.New(red.N())
	in, _, err := SolveDetReduction(nw, nw.MsgWords(), red, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := red.ExtractColoring(in, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ListColoring(inst, col); err != nil {
		t.Fatal(err)
	}
}
