package verify

import (
	"errors"
	"testing"

	"ccolor/internal/graph"
)

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestProperAccepts(t *testing.T) {
	g := triangle(t)
	if err := Proper(g, graph.Coloring{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestProperRejectsMonochromaticEdge(t *testing.T) {
	g := triangle(t)
	if err := Proper(g, graph.Coloring{1, 1, 2}); !errors.Is(err, ErrImproper) {
		t.Fatalf("want ErrImproper, got %v", err)
	}
}

func TestProperRejectsIncomplete(t *testing.T) {
	g := triangle(t)
	if err := Proper(g, graph.Coloring{1, graph.NoColor, 2}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
}

func TestProperRejectsWrongLength(t *testing.T) {
	g := triangle(t)
	if err := Proper(g, graph.Coloring{1, 2}); err == nil {
		t.Fatal("short coloring accepted")
	}
}

func TestListColoring(t *testing.T) {
	g := triangle(t)
	pals := []graph.Palette{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}
	inst, err := graph.NewInstance(g, pals)
	if err != nil {
		t.Fatal(err)
	}
	if err := ListColoring(inst, graph.Coloring{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ListColoring(inst, graph.Coloring{9, 2, 3}); !errors.Is(err, ErrOffPalette) {
		t.Fatalf("want ErrOffPalette, got %v", err)
	}
}

func TestColorCount(t *testing.T) {
	c := graph.Coloring{5, 1, 5, 2}
	if ColorCount(c) != 3 {
		t.Fatalf("count = %d, want 3", ColorCount(c))
	}
	if n := ColorCount(graph.NewColoring(2)); n != 0 {
		t.Fatalf("uncolored count = %d, want 0", n)
	}
}
