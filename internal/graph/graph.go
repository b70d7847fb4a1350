// Package graph provides the graph substrate used throughout ccolor:
// an immutable CSR-style undirected graph, list-coloring instances
// (per-node color palettes), and deterministic workload generators.
//
// All color values are int64 because in the (Δ+1)-list coloring problem the
// color universe may be as large as 𝔫² (paper §3, Algorithm 2).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Color is a single color value. List-coloring palettes may draw from a
// universe of size up to 𝔫², hence 64 bits.
type Color = int64

// NoColor marks an uncolored node in a coloring vector.
const NoColor Color = -1

// Graph is an immutable undirected simple graph in CSR (compressed sparse
// row) form. Node IDs are 0..N-1.
type Graph struct {
	offsets []int32 // len N+1
	adj     []int32 // len 2m, neighbor lists, each sorted ascending
}

// MaxNodes is the largest node count any constructor accepts: node IDs are
// int32 throughout (CSR entries, edge lists, wire encodings), so one more
// node than this would silently truncate on the int32 casts.
const MaxNodes = 1<<31 - 1

// ErrTooManyNodes is returned (wrapped) by constructors, generators, and
// decoders handed a node count that does not fit the int32 ID space.
var ErrTooManyNodes = errors.New("graph: node count exceeds int32 ID space")

// checkNodeCount guards every path that casts node IDs to int32.
func checkNodeCount(n int) error {
	if n > MaxNodes {
		return fmt.Errorf("n=%d > %d: %w", n, MaxNodes, ErrTooManyNodes)
	}
	return nil
}

// NewGraph builds a Graph from an adjacency list. Each neighbor list is
// copied, sorted, and validated (no self loops, no duplicates, symmetric).
func NewGraph(adj [][]int32) (*Graph, error) {
	n := len(adj)
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	total := 0
	for _, l := range adj {
		total += len(l)
	}
	g := &Graph{
		offsets: make([]int32, n+1),
		adj:     make([]int32, 0, total),
	}
	for v, l := range adj {
		ll := make([]int32, len(l))
		copy(ll, l)
		slices.Sort(ll)
		for i, u := range ll {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return nil, fmt.Errorf("graph: node %d has a self loop", v)
			}
			if i > 0 && ll[i-1] == u {
				return nil, fmt.Errorf("graph: node %d has duplicate neighbor %d", v, u)
			}
		}
		g.adj = append(g.adj, ll...)
		g.offsets[v+1] = int32(len(g.adj))
	}
	if err := g.checkSymmetry(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromEdges builds a Graph on n nodes from an undirected edge list.
// Duplicate edges and self loops are rejected.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	sink, err := NewEdgeSink(n)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		sink.Add(e[0], e[1])
	}
	return sink.Build()
}

func (g *Graph) checkSymmetry() error {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if !g.HasEdge(u, int32(v)) {
				return fmt.Errorf("graph: edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			}
		}
	}
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns Δ, the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(int32(v)); dv > d {
			d = dv
		}
	}
	return d
}

// Neighbors returns the sorted neighbor list of v. The returned slice is a
// view into internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u,v} is an edge, in O(log deg(u)) time.
func (g *Graph) HasEdge(u, v int32) bool {
	l := g.Neighbors(u)
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	return i < len(l) && l[i] == v
}

// Size returns the instance size |V| + 2|E| (nodes plus adjacency entries),
// the quantity the paper's "size O(𝔫)" collection threshold refers to.
func (g *Graph) Size() int { return g.N() + len(g.adj) }

// Coloring is a color assignment indexed by node ID; NoColor means unset.
type Coloring []Color

// NewColoring returns an all-NoColor coloring for n nodes.
func NewColoring(n int) Coloring {
	c := make(Coloring, n)
	for i := range c {
		c[i] = NoColor
	}
	return c
}

// Complete reports whether every node has a color.
func (c Coloring) Complete() bool {
	for _, x := range c {
		if x == NoColor {
			return false
		}
	}
	return true
}

// Palette is a sorted list of distinct colors available to one node.
type Palette []Color

// NewPalette copies, sorts, and dedup-validates a color list. Colors must
// be non-negative: NoColor is −1, and solvers index colors from 0.
func NewPalette(colors []Color) (Palette, error) {
	p := make(Palette, len(colors))
	copy(p, colors)
	slices.Sort(p)
	if len(p) > 0 && p[0] < 0 {
		return nil, fmt.Errorf("graph: negative color %d in palette", p[0])
	}
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1] {
			return nil, fmt.Errorf("graph: duplicate color %d in palette", p[i])
		}
	}
	return p, nil
}

// RangePalette returns the palette {lo, lo+1, ..., hi}.
func RangePalette(lo, hi Color) Palette {
	p := make(Palette, 0, hi-lo+1)
	for c := lo; c <= hi; c++ {
		p = append(p, c)
	}
	return p
}

// Contains reports whether color c is in the palette (binary search).
func (p Palette) Contains(c Color) bool {
	i := sort.Search(len(p), func(i int) bool { return p[i] >= c })
	return i < len(p) && p[i] == c
}

// Without returns a new palette with the given colors removed, by a linear
// sorted merge. remove must be sorted ascending (duplicates allowed) and
// may contain colors not present in p — callers keep a reusable sorted
// scratch slice instead of building a set per node.
func (p Palette) Without(remove []Color) Palette {
	out := make(Palette, 0, len(p))
	j := 0
	for _, c := range p {
		for j < len(remove) && remove[j] < c {
			j++
		}
		if j < len(remove) && remove[j] == c {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Instance is a list-coloring instance: a graph plus a palette per node.
// It is the unit of work ColorReduce recurses on.
type Instance struct {
	G        *Graph
	Palettes []Palette
}

// ErrPaletteTooSmall is returned when some node has p(v) ≤ d(v), violating
// the basic solvability invariant d(v) < p(v) (paper Cor. 3.3(iii)).
var ErrPaletteTooSmall = errors.New("graph: palette size not greater than degree")

// NewInstance validates that palettes align with the graph and that
// p(v) > d(v) for every node v.
func NewInstance(g *Graph, palettes []Palette) (*Instance, error) {
	if len(palettes) != g.N() {
		return nil, fmt.Errorf("graph: %d palettes for %d nodes", len(palettes), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if len(palettes[v]) <= g.Degree(int32(v)) {
			return nil, fmt.Errorf("node %d: palette %d ≤ degree %d: %w",
				v, len(palettes[v]), g.Degree(int32(v)), ErrPaletteTooSmall)
		}
	}
	return &Instance{G: g, Palettes: palettes}, nil
}

// ErrBadPalette is returned (wrapped, naming the node) by CheckPalettes.
var ErrBadPalette = errors.New("graph: malformed palette")

// CheckPalettes reports whether the instance has one palette per node and
// every palette is the form NewPalette builds: distinct non-negative
// colors in ascending order. Every solver and the verifier rely on that
// form; instances built by hand are checked here before a solve. A palette
// that is the same slice as the previous node's is checked once.
func (in *Instance) CheckPalettes() error {
	if len(in.Palettes) != in.G.N() {
		return fmt.Errorf("graph: %d palettes for %d nodes: %w", len(in.Palettes), in.G.N(), ErrBadPalette)
	}
	for v, p := range in.Palettes {
		if v > 0 && SameSlice(p, in.Palettes[v-1]) {
			continue
		}
		if len(p) > 0 && p[0] < 0 {
			return fmt.Errorf("graph: node %d has negative color %d: %w", v, p[0], ErrBadPalette)
		}
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return fmt.Errorf("graph: node %d palette is not strictly ascending (%d after %d): %w",
					v, p[i], p[i-1], ErrBadPalette)
			}
		}
	}
	return nil
}

// SameSlice reports whether a and b are the same slice: one backing array,
// one length. DeltaPlus1Instance gives every node the same slice.
func SameSlice(a, b Palette) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// DeltaPlus1Instance builds the classic (Δ+1)-coloring instance: every node
// gets palette {1, ..., Δ+1}.
func DeltaPlus1Instance(g *Graph) *Instance {
	delta := g.MaxDegree()
	base := RangePalette(1, Color(delta+1))
	pals := make([]Palette, g.N())
	for v := range pals {
		pals[v] = base // shared: palettes are read-only by convention
	}
	return &Instance{G: g, Palettes: pals}
}

// PaletteMass returns Σ_v p(v), the total palette storage of the instance.
func (in *Instance) PaletteMass() int {
	total := 0
	for _, p := range in.Palettes {
		total += len(p)
	}
	return total
}

// Size returns the instance size: |V| + 2|E| + Σ_v p(v), i.e. everything a
// machine must store to hold the instance.
func (in *Instance) Size() int { return in.G.Size() + in.PaletteMass() }
