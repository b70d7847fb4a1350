// Package ccolor is a Go implementation of
//
//	Czumaj, Davies, Parter. "Simple, Deterministic, Constant-Round
//	Coloring in the Congested Clique." PODC 2020.
//
// It provides deterministic (Δ+1)-coloring and (Δ+1)-list coloring in a
// simulated CONGESTED CLIQUE and linear-space MPC (constant model rounds),
// and deterministic (deg+1)-list coloring in low-space MPC — together with
// the full substrate the paper assumes: model simulators with enforced
// bandwidth/space limits, c-wise independent hash families, the
// derandomization engine, and an MIS reduction.
//
// Coloring is one entry in a problem registry (internal/problem): the same
// session machinery also solves maximal independent sets and deterministic
// (2,β)-ruling sets on all three models. Solve is the one entry point:
// Options.Problem picks the problem and Options.Model the model.
//
// This file is the public facade over the internal packages; the
// sub-packages under internal/ hold the implementation, and cmd/ and
// examples/ show larger deployments. A minimal use:
//
//	g, _ := ccolor.GNP(1000, 0.02, 1)
//	rep, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), nil)
//	// rep.Coloring is a verified proper (Δ+1)-coloring;
//	// rep.Rounds is the exact CONGESTED CLIQUE round count.
package ccolor

import (
	"ccolor/internal/core"
	"ccolor/internal/graph"
	"ccolor/internal/lowspace"
	"ccolor/internal/mis"
	"ccolor/internal/verify"
)

// Re-exported fundamental types.
type (
	// Graph is an immutable undirected simple graph (CSR storage).
	Graph = graph.Graph
	// Color is a single color value (the list-coloring universe may be as
	// large as 𝔫²).
	Color = graph.Color
	// Coloring is a per-node color assignment.
	Coloring = graph.Coloring
	// Palette is one node's sorted list of permitted colors.
	Palette = graph.Palette
	// Instance is a list-coloring instance: graph + palette per node.
	Instance = graph.Instance
	// Params are the algorithm knobs (paper-faithful defaults via
	// DefaultParams).
	Params = core.Params
	// Trace is the per-run telemetry (recursion depths, bad-node counts,
	// invariant audit).
	Trace = core.Trace
	// LowSpaceParams configures the Theorem 1.4 algorithm.
	LowSpaceParams = lowspace.Params
	// LowSpaceTrace is the low-space run telemetry.
	LowSpaceTrace = lowspace.Trace
	// MISParams configures the derandomized MIS machinery behind the MIS
	// and ruling-set problems (Options.MIS).
	MISParams = mis.Params
)

// NoColor marks an uncolored node.
const NoColor = graph.NoColor

// DefaultParams returns the paper-faithful parameters (§3 exponents).
func DefaultParams() Params { return core.DefaultParams() }

// Workload generators (deterministic in their seed).
var (
	// GNP returns an Erdős–Rényi G(n, p) graph.
	GNP = graph.GNP
	// RandomRegular returns a d-regular graph on n nodes.
	RandomRegular = graph.RandomRegular
	// PowerLaw returns a preferential-attachment graph.
	PowerLaw = graph.PowerLaw
	// FromEdges builds a graph from an undirected edge list.
	FromEdges = graph.FromEdges
	// NewPalette validates and sorts a color list.
	NewPalette = graph.NewPalette
	// NewInstance validates a list-coloring instance (p(v) > d(v)).
	NewInstance = graph.NewInstance
	// DeltaPlus1Instance gives every node palette {1..Δ+1}.
	DeltaPlus1Instance = graph.DeltaPlus1Instance
	// ListInstance gives every node Δ+1 colors from a larger universe.
	ListInstance = graph.ListInstance
	// DegPlus1Instance gives node v exactly deg(v)+1 colors (for LowSpace).
	DegPlus1Instance = graph.DegPlus1Instance
)

// ErrBadPalette is the error (wrapped, naming the node) Solve returns for a
// coloring instance without one palette per node of distinct non-negative
// colors in ascending order, the form NewPalette builds.
var ErrBadPalette = graph.ErrBadPalette

// DefaultLowSpaceParams returns the Theorem 1.4 defaults (𝔰 = 𝔫^0.5).
func DefaultLowSpaceParams() LowSpaceParams { return lowspace.DefaultParams() }

// VerifyListColoring checks a coloring against an instance (completeness,
// properness, palette membership).
func VerifyListColoring(inst *Instance, c Coloring) error {
	return verify.ListColoring(inst, c)
}
