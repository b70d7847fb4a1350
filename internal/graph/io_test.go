package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := GNP(60, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: n %d→%d m %d→%d", g.N(), g2.N(), g.M(), g2.M())
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if !g2.HasEdge(int32(v), u) {
				t.Fatalf("edge (%d,%d) lost", v, u)
			}
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"bad-count", "x\n"},
		{"bad-edge", "3\n1\n"},
		{"non-numeric", "3\n1 q\n"},
		{"self-loop", "3\n1 1\n"},
		{"out-of-range", "3\n1 9\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
		})
	}
}

func TestReadEdgeListComments(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# a triangle\n3\n\n0 1\n1 2\n# done\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestWriteDOT(t *testing.T) {
	g, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, Coloring{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph ccolor {") || !strings.Contains(out, "0 -- 1;") {
		t.Fatalf("bad DOT output:\n%s", out)
	}
	if !strings.Contains(out, "fillcolor") {
		t.Fatal("coloring not rendered")
	}
	// Without a coloring, nodes are plain.
	buf.Reset()
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fillcolor") {
		t.Fatal("unexpected fills without coloring")
	}
}
