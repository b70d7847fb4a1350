// Package verify provides the output oracle: proper-coloring and
// list-respecting checks every experiment and test runs against algorithm
// output.
package verify

import (
	"errors"
	"fmt"

	"ccolor/internal/graph"
)

// ErrImproper reports a monochromatic edge.
var ErrImproper = errors.New("verify: improper coloring")

// ErrOffPalette reports a node colored outside its palette.
var ErrOffPalette = errors.New("verify: color not in palette")

// ErrIncomplete reports an uncolored node.
var ErrIncomplete = errors.New("verify: incomplete coloring")

// Proper checks that the coloring is complete and no edge is
// monochromatic.
func Proper(g *graph.Graph, c graph.Coloring) error {
	if len(c) != g.N() {
		return fmt.Errorf("verify: coloring has %d entries for %d nodes", len(c), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if c[v] == graph.NoColor {
			return fmt.Errorf("node %d: %w", v, ErrIncomplete)
		}
		for _, u := range g.Neighbors(int32(v)) {
			if c[u] == c[v] {
				return fmt.Errorf("edge (%d,%d) both colored %d: %w", v, u, c[v], ErrImproper)
			}
		}
	}
	return nil
}

// ListColoring checks Proper plus that every node's color belongs to its
// palette — the full (Δ+1)-list / (deg+1)-list coloring contract.
func ListColoring(inst *graph.Instance, c graph.Coloring) error {
	if err := Proper(inst.G, c); err != nil {
		return err
	}
	for v := 0; v < inst.G.N(); v++ {
		if !inst.Palettes[v].Contains(c[v]) {
			return fmt.Errorf("node %d colored %d: %w", v, c[v], ErrOffPalette)
		}
	}
	return nil
}

// ColorCount returns the number of distinct colors used.
func ColorCount(c graph.Coloring) int {
	seen := make(map[graph.Color]struct{}, len(c))
	for _, x := range c {
		if x != graph.NoColor {
			seen[x] = struct{}{}
		}
	}
	return len(seen)
}
