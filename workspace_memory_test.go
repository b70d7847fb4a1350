package ccolor_test

import (
	"fmt"
	"testing"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// TestListPaletteWorkspaceLinear: a clique or MPC solve of a list instance
// keeps a workspace linear in the instance — at most twice its encoded
// words — however wide the colour domain. The packed palettes hold only
// each node's nonzero words, so the registry powerlaw lists (a 4n
// universe) and an n² universe read alike. Each solve runs on a fresh
// session: the figure is retained capacity, so a facade session that an
// earlier, larger solve grew would read high.
func TestListPaletteWorkspaceLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("2¹³-node list solves skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("2¹³-node list solves skipped under -race")
	}
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		t.Fatal(err)
	}
	insts := map[string]*graph.Instance{}
	for _, n := range []int{1 << 12, 1 << 13} {
		inst, err := spec.Instance(n, 11)
		if err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprintf("powerlaw%d", n)] = inst
	}
	const n = 4096
	g, err := ccolor.GNP(n, 16.0/n, 11)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ccolor.ListInstance(g, n*n, 11)
	if err != nil {
		t.Fatal(err)
	}
	insts["gnp4096-n²"] = inst

	for _, name := range []string{"powerlaw4096", "powerlaw8192", "gnp4096-n²"} {
		for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC} {
			t.Run(fmt.Sprintf("%s/%s", name, model), func(t *testing.T) {
				sess, err := ccolor.NewSolverSession(model)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Release()
				rep, err := sess.Solve(insts[name], &ccolor.Options{Model: model})
				if err != nil {
					t.Fatal(err)
				}
				ws, iw := rep.Memory.WorkspaceWords, rep.Memory.InstanceWords
				t.Logf("WorkspaceWords=%d InstanceWords=%d (%.2f×)", ws, iw, float64(ws)/float64(iw))
				if ws > 2*iw {
					t.Fatalf("WorkspaceWords=%d exceeds 2×InstanceWords=%d", ws, 2*iw)
				}
			})
		}
	}
}
