package verify

import (
	"errors"
	"strings"
	"testing"

	"ccolor/internal/graph"
)

func deltaInst(t *testing.T) *graph.Instance {
	t.Helper()
	g, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	return graph.DeltaPlus1Instance(g) // Δ=2, palettes {1,2,3}
}

func TestCheckInstance(t *testing.T) {
	if err := CheckInstance(deltaInst(t)); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	bad := &graph.Instance{G: g, Palettes: []graph.Palette{
		{1, 2, 3}, {3, 2, 1}, {1, 2, 3}, {1, 2, 3}, // unsorted palette
	}}
	if err := CheckInstance(bad); !errors.Is(err, ErrBadInstance) {
		t.Fatalf("unsorted palette: got %v", err)
	}
	small := &graph.Instance{G: g, Palettes: []graph.Palette{
		{1, 2, 3}, {1, 2}, {1, 2, 3}, {1, 2, 3}, // p ≤ deg
	}}
	if err := CheckInstance(small); !errors.Is(err, ErrBadInstance) {
		t.Fatalf("small palette: got %v", err)
	}
	if err := CheckInstance(nil); !errors.Is(err, ErrBadInstance) {
		t.Fatalf("nil instance: got %v", err)
	}
}

func TestClassifiers(t *testing.T) {
	inst := deltaInst(t)
	if !IsDeltaPlus1(inst) {
		t.Error("cycle Δ+1 instance not recognized")
	}
	g, err := graph.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	star := graph.DeltaPlus1Instance(g) // center deg 3, leaves deg 1
	if !IsDeltaPlus1(star) {
		t.Error("star Δ+1 instance not recognized")
	}
	list, err := graph.ListInstance(g, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsDeltaPlus1(list) {
		t.Error("random list instance classified as Δ+1")
	}
}

func TestFullBounds(t *testing.T) {
	inst := deltaInst(t)
	if err := Full(inst, graph.Coloring{1, 2, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Off-palette color also violates the Δ+1 bound; membership fires first.
	err := Full(inst, graph.Coloring{1, 2, 1, 2, 9})
	if err == nil {
		t.Fatal("off-palette, out-of-bound coloring accepted")
	}
	// Classification is strict: a palette shifted off {1..Δ+1} demotes the
	// instance to list discipline, so the Δ+1 bound is only ever asserted
	// where it genuinely applies.
	g, gerr := graph.Cycle(4)
	if gerr != nil {
		t.Fatal(gerr)
	}
	shifted := &graph.Instance{G: g, Palettes: []graph.Palette{
		{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {0, 2, 3},
	}}
	if IsDeltaPlus1(shifted) {
		t.Fatal("palette {0,2,3} should not classify as Δ+1")
	}
	if err := Full(shifted, graph.Coloring{1, 2, 1, 0}); err != nil {
		t.Fatalf("valid list coloring rejected: %v", err)
	}
}

func TestCrossModelAgreement(t *testing.T) {
	inst := deltaInst(t)
	good := graph.Coloring{1, 2, 1, 2, 3}
	alt := graph.Coloring{2, 1, 2, 1, 3}
	a := CrossModel(inst, []ModelColoring{
		{Model: "cclique", Coloring: good},
		{Model: "mpc", Coloring: good},
		{Model: "lowspace", Coloring: alt},
	})
	if !a.Clean() {
		t.Fatalf("all colorings proper, got failures: %v", a.Failures)
	}
	if a.Unanimous() {
		t.Fatal("two distinct colorings reported unanimous")
	}
	if len(a.Groups) != 2 {
		t.Fatalf("groups = %v, want 2 groups", a.Groups)
	}
	if len(a.Groups[0]) != 2 || a.Groups[0][0] != "cclique" || a.Groups[0][1] != "mpc" {
		t.Fatalf("first group = %v, want [cclique mpc]", a.Groups[0])
	}
	if a.ColoringFP["cclique"] != a.ColoringFP["mpc"] {
		t.Fatal("identical colorings got different fingerprints")
	}
	if a.ColoringFP["cclique"] == a.ColoringFP["lowspace"] {
		t.Fatal("distinct colorings got identical fingerprints")
	}
	if a.InstanceFP != InstanceFingerprint(inst) {
		t.Fatal("instance fingerprint mismatch")
	}
	if !strings.Contains(a.String(), "distinct verified colorings") {
		t.Fatalf("report rendering: %q", a.String())
	}
}

func TestCrossModelFlagsFailures(t *testing.T) {
	inst := deltaInst(t)
	bad := graph.Coloring{1, 1, 2, 1, 3} // edge (0,1) monochromatic
	a := CrossModel(inst, []ModelColoring{
		{Model: "cclique", Coloring: graph.Coloring{1, 2, 1, 2, 3}},
		{Model: "lowspace", Coloring: bad},
	})
	if a.Clean() {
		t.Fatal("improper coloring reported clean")
	}
	if _, ok := a.Failures["lowspace"]; !ok {
		t.Fatalf("failures = %v, want lowspace flagged", a.Failures)
	}
	if _, ok := a.Failures["cclique"]; ok {
		t.Fatal("clean model flagged")
	}
	if !strings.Contains(a.String(), "UNVERIFIED") {
		t.Fatalf("report rendering: %q", a.String())
	}
}

func TestFingerprintsDeterministic(t *testing.T) {
	inst := deltaInst(t)
	if InstanceFingerprint(inst) != InstanceFingerprint(inst) {
		t.Fatal("instance fingerprint not deterministic")
	}
	c := graph.Coloring{1, 2, 1, 2, 3}
	if ColoringFingerprint(c) != ColoringFingerprint(c) {
		t.Fatal("coloring fingerprint not deterministic")
	}
	c2 := graph.Coloring{1, 2, 1, 3, 2}
	if ColoringFingerprint(c) == ColoringFingerprint(c2) {
		t.Fatal("distinct colorings collide (astronomically unlikely)")
	}
}
