package mis

import (
	"fmt"

	"ccolor/internal/graph"
)

// Reduction is the Luby reduction (§4.1) from (deg+1)-list coloring to MIS:
// each node v of the original graph becomes a clique on p(v) "color nodes"
// (one per palette color); color nodes (u,γ) and (v,γ) of adjacent original
// nodes sharing color γ are joined by a conflict edge. Exactly one color
// node per clique joins any MIS, and the induced assignment is a proper
// list coloring (the paper's §4.1 argument: with p(v) > d(v), pigeonhole
// guarantees a free color, so maximality forces a clique member in).
//
// Layout: reduction nodes are numbered clique-block contiguously — v's
// color nodes occupy [first[v], first[v+1]) in palette order — so the
// O(p(v)²) clique edges are never materialized: a node's clique siblings
// are simply the rest of its block. Only conflict edges are stored, in CSR
// form (confOff/conf); they are found by a sorted merge of the two
// endpoints' palettes per original edge, with no per-node color maps.
type Reduction struct {
	owner   []int32       // reduction node → original node
	colorOf []graph.Color // reduction node → palette color
	first   []int32       // original node → first reduction node (len n+1)
	confOff []int32       // conflict-edge CSR offsets (len N()+1)
	conf    []int32       // conflict-edge CSR adjacency

	cur []int32 // fill cursors, reused across Build calls
}

// N returns the number of reduction nodes, Σ_v p(v).
func (r *Reduction) N() int { return len(r.owner) }

// Orig returns the number of original nodes.
func (r *Reduction) Orig() int { return len(r.first) - 1 }

// CliqueBlock returns the half-open reduction-node range [lo, hi) of x's
// implicit clique — its owner's color nodes, x itself included. For
// iteration as a neighbor list, skip x.
func (r *Reduction) CliqueBlock(x int32) (lo, hi int32) {
	v := r.owner[x]
	return r.first[v], r.first[v+1]
}

// Conflicts returns x's explicit conflict neighbors (same-color nodes of
// adjacent original nodes). The slice is a view into internal storage.
func (r *Reduction) Conflicts(x int32) []int32 {
	return r.conf[r.confOff[x]:r.confOff[x+1]]
}

// Degree returns x's reduction-graph degree: clique siblings plus conflict
// edges.
func (r *Reduction) Degree(x int32) int {
	v := r.owner[x]
	return int(r.first[v+1]-r.first[v]) - 1 + int(r.confOff[x+1]-r.confOff[x])
}

// MemoryWords reports the reduction's retained storage in 64-bit words, at
// capacity.
func (r *Reduction) MemoryWords() int64 {
	i32 := cap(r.owner) + cap(r.first) + cap(r.confOff) + cap(r.conf) + cap(r.cur)
	return int64(cap(r.colorOf)) + int64(i32)/2
}

// BuildReduction constructs the reduction for an instance.
func BuildReduction(inst *graph.Instance) *Reduction {
	n := inst.G.N()
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = inst.G.Neighbors(int32(v))
	}
	r := new(Reduction)
	r.Build(adj, inst.Palettes)
	return r
}

// Build (re)constructs the reduction in place from per-node adjacency lists
// and palettes, reusing all of r's storage across calls — the steady-state
// build allocates nothing once r has seen its largest instance. Adjacency
// must be symmetric and self-loop-free; palettes must be sorted and
// duplicate-free (the graph.Palette contract). The reduction graph has
// Σ p(v) nodes and maximum degree < max p(v) + Δ·λ, where λ bounds
// per-color palette overlap with neighbors (paper: original degree 𝔫^{7δ}
// ⇒ reduction degree ≤ 𝔫^{14δ}).
func (r *Reduction) Build(adj [][]int32, pals []graph.Palette) {
	n := len(adj)
	r.first = graph.Grow(r.first, n+1)
	total := 0
	for v := 0; v < n; v++ {
		r.first[v] = int32(total)
		total += len(pals[v])
	}
	r.first[n] = int32(total)

	r.owner = graph.Grow(r.owner, total)
	r.colorOf = graph.Grow(r.colorOf, total)
	for v := 0; v < n; v++ {
		x := r.first[v]
		for i, c := range pals[v] {
			r.owner[x+int32(i)] = int32(v)
			r.colorOf[x+int32(i)] = c
		}
	}

	// Pass 1: count conflict edges per reduction node. Each undirected
	// original edge {v,u} is visited once (from its smaller endpoint); the
	// shared colors are the matches of a sorted two-pointer merge of the
	// endpoints' palettes.
	r.confOff = graph.Grow(r.confOff, total+1)
	clear(r.confOff)
	for v := 0; v < n; v++ {
		pv := pals[v]
		for _, u := range adj[v] {
			if u <= int32(v) {
				continue
			}
			pu := pals[u]
			for i, j := 0, 0; i < len(pv) && j < len(pu); {
				switch {
				case pv[i] < pu[j]:
					i++
				case pv[i] > pu[j]:
					j++
				default:
					r.confOff[r.first[v]+int32(i)+1]++
					r.confOff[r.first[u]+int32(j)+1]++
					i++
					j++
				}
			}
		}
	}
	for x := 0; x < total; x++ {
		r.confOff[x+1] += r.confOff[x]
	}

	// Pass 2: scatter conflict endpoints through per-node fill cursors.
	r.conf = graph.Grow(r.conf, int(r.confOff[total]))
	r.cur = graph.Grow(r.cur, total)
	copy(r.cur, r.confOff[:total])
	for v := 0; v < n; v++ {
		pv := pals[v]
		for _, u := range adj[v] {
			if u <= int32(v) {
				continue
			}
			pu := pals[u]
			for i, j := 0, 0; i < len(pv) && j < len(pu); {
				switch {
				case pv[i] < pu[j]:
					i++
				case pv[i] > pu[j]:
					j++
				default:
					x := r.first[v] + int32(i)
					y := r.first[u] + int32(j)
					r.conf[r.cur[x]] = y
					r.conf[r.cur[y]] = x
					r.cur[x]++
					r.cur[y]++
					i++
					j++
				}
			}
		}
	}
}

// Materialize builds the explicit reduction graph — clique edges included —
// as a *graph.Graph. It is the reference rendering used by tests and
// sequential baselines; the distributed solver never materializes it.
func (r *Reduction) Materialize() (*graph.Graph, error) {
	total := r.N()
	adj := make([][]int32, total)
	for x := int32(0); x < int32(total); x++ {
		l := make([]int32, 0, r.Degree(x))
		lo, hi := r.CliqueBlock(x)
		for y := lo; y < hi; y++ {
			if y != x {
				l = append(l, y)
			}
		}
		l = append(l, r.Conflicts(x)...)
		adj[x] = l
	}
	g, err := graph.NewGraph(adj)
	if err != nil {
		return nil, fmt.Errorf("mis: reduction graph: %w", err)
	}
	return g, nil
}

// ExtractColoring reads the coloring off an MIS of the reduction graph.
func (r *Reduction) ExtractColoring(in []bool, n int) (graph.Coloring, error) {
	col := graph.NewColoring(n)
	if err := r.ExtractColoringInto(in, col); err != nil {
		return nil, err
	}
	return col, nil
}

// ExtractColoringInto is ExtractColoring writing into a caller-provided
// vector (len = original node count, all entries NoColor on entry), so a
// pooled scratch coloring can be reused across extractions.
func (r *Reduction) ExtractColoringInto(in []bool, col graph.Coloring) error {
	if len(in) != r.N() {
		return fmt.Errorf("mis: MIS has %d entries for %d reduction nodes", len(in), r.N())
	}
	if len(col) != r.Orig() {
		return fmt.Errorf("mis: coloring has %d entries for %d original nodes", len(col), r.Orig())
	}
	for x, chosen := range in {
		if !chosen {
			continue
		}
		v := r.owner[x]
		if col[v] != graph.NoColor {
			return fmt.Errorf("mis: original node %d received two colors", v)
		}
		col[v] = r.colorOf[x]
	}
	for v := range col {
		if col[v] == graph.NoColor {
			return fmt.Errorf("mis: original node %d received no color", v)
		}
	}
	return nil
}
