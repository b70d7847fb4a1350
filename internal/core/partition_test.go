package core

import (
	"fmt"
	"math"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/derand"
	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

// solveWaves runs a congested-clique solve one wave at a time, calling
// boundary before every wave and once after the last, and verifies the
// coloring.
func solveWaves(t *testing.T, inst *graph.Instance, p Params, boundary func(s *solver)) *Trace {
	t.Helper()
	nw := cclique.New(inst.G.N())
	s, err := newSolver(nw, nw.MsgWords(), inst, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.wsp.Release()
	for s.colored < s.bign {
		boundary(s)
		if err := s.wave(); err != nil {
			t.Fatalf("wave %d: %v", s.trace.Waves, err)
		}
	}
	boundary(s)
	if err := verify.ListColoring(inst, s.color); err != nil {
		t.Fatal(err)
	}
	return s.trace
}

// def31 is the reference Definition 3.1 for node v of call x under one
// candidate pair, with no tables: it reads membership from both the stamp
// and the coloring, counts in-call and same-bin neighbours itself, and
// evaluates h₂ on every palette color. h1 holds the candidate's h₁ per node.
func def31(s *solver, x *call, b int, p derand.Pair, h1 []int64, v int32) (bin int, bad bool) {
	bin = int(h1[v])
	d, dPrime := 0, 0
	for _, u := range s.g.Neighbors(v) {
		if s.callOf[u] != int32(x.id) || s.color[u] != graph.NoColor {
			continue
		}
		d++
		if h1[u] == h1[v] {
			dPrime++
		}
	}
	bad = math.Abs(float64(dPrime)-float64(d)/float64(b)) > s.p.degSlack(x.ell)
	if bad || bin == b-1 {
		return bin, bad
	}
	pPrime := 0
	s.palForEach(v, func(c graph.Color) bool {
		if p.H2.Eval(c) == int64(bin) {
			pPrime++
		}
		return true
	})
	pal := float64(s.palSize(v))
	slack := min(s.p.palSlack(x.ell), pal/(2*float64(b)*float64(b-1)))
	return bin, float64(pPrime) < pal/float64(b)+slack
}

// TestClassifyMatchesDefinition31 is the batched kernel's oracle: at every
// Partition call of a solve, each candidate's vector from one
// classify call over the batch must equal the reference Definition 3.1 for
// that candidate alone. The cases cover the three p′(v) paths (packed
// masks, packed near-disjoint list palettes counted through h₂, compact
// palettes), batch widths that fill a lane word partly, exactly and twice,
// and bin counts beyond the defaults' B = 2. Calls below the root have
// neighbours outside the call, which the kernel must not count.
func TestClassifyMatchesDefinition31(t *testing.T) {
	type instCase struct {
		name    string
		compact bool // palettes are {1..Δ+1}, so compact mode applies
		build   func() (*graph.Instance, error)
	}
	insts := []instCase{
		{"gnp", true, func() (*graph.Instance, error) {
			g, err := graph.GNP(260, 0.22, 3)
			if err != nil {
				return nil, err
			}
			return graph.DeltaPlus1Instance(g), nil
		}},
		{"powerlaw", true, func() (*graph.Instance, error) {
			g, err := graph.PowerLaw(260, 12, 5)
			if err != nil {
				return nil, err
			}
			return graph.DeltaPlus1Instance(g), nil
		}},
		{"list", false, func() (*graph.Instance, error) {
			g, err := graph.GNP(260, 0.22, 7)
			if err != nil {
				return nil, err
			}
			return graph.ListInstance(g, 260*260, 11)
		}},
	}
	for _, ic := range insts {
		inst, err := ic.build()
		if err != nil {
			t.Fatal(err)
		}
		deep := 0 // checked calls below the root
		for _, bins := range []int{2, 3, 7} {
			for _, compact := range []bool{false, true} {
				if compact && !ic.compact {
					continue
				}
				p := DefaultParams()
				p.ForceBins = bins
				p.CompactPalettes = compact
				// Forced wide bins can exhaust the seed search at this size;
				// the oracle needs Partition calls, not good seeds.
				p.AcceptFirstSeed = true
				name := fmt.Sprintf("%s/B=%d/compact=%v", ic.name, bins, compact)
				t.Run(name, func(t *testing.T) {
					checked, masked := 0, 0
					solveWaves(t, inst, p, func(s *solver) {
						for _, x := range s.runnable {
							size, _ := s.callDegrees(x)
							if x.role == roleG0 || s.p.shouldCollect(size, s.bign, x.ell) {
								continue
							}
							if checkClassify(t, s, x) {
								masked++
							}
							checked++
							if x.depth > 0 {
								deep++
							}
						}
					})
					if checked == 0 {
						t.Fatal("no Partition call checked")
					}
					if want := !compact && ic.name != "list"; (masked > 0) != want {
						t.Fatalf("%d of %d calls used color masks; want masks=%v", masked, checked, want)
					}
				})
			}
		}
		if deep == 0 {
			t.Errorf("%s: no Partition call below the root was checked", ic.name)
		}
	}
}

// checkClassify compares one classify call per node and batch against def31
// for every candidate, at batch widths 1, 3, 8 and 16. It reports whether
// the call's batches carried packed color masks.
func checkClassify(t *testing.T, s *solver, x *call) bool {
	t.Helper()
	bs, err := s.newBatchScorer(x)
	if err != nil {
		t.Fatal(err)
	}
	perCand := bs.perCand()
	h1 := make([][]int64, 16)
	for _, width := range []int{1, 3, 8, 16} {
		cands := make([]derand.Pair, width)
		for i := range cands {
			seed := uint64(x.id)<<8 | uint64(width)<<4 | uint64(i)
			cands[i] = derand.Pair{H1: bs.f1.Member(seed), H2: bs.f2.Member(^seed), Index: uint64(i)}
			h1[i] = make([]int64, s.bign)
			for _, v := range x.nodes {
				h1[i][v] = cands[i].H1.Eval(int64(v))
			}
		}
		bs.prepare(cands)
		out := make([]int64, width*perCand)
		for _, v := range x.nodes {
			if s.color[v] != graph.NoColor {
				continue
			}
			clear(out)
			bs.classify(v, cands, out)
			for i, p := range cands {
				bin, bad := def31(s, x, bs.b, p, h1[i], v)
				want := make([]int64, perCand)
				if bad {
					want[0] = 1
				}
				want[1+bin] = 1
				got := out[i*perCand : (i+1)*perCand]
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("call %d (depth %d, B=%d) width %d: node %d candidate %d scored %v, Definition 3.1 gives %v",
							x.id, x.depth, bs.b, width, v, i, got, want)
					}
				}
			}
		}
	}
	return bs.maskStride > 0
}

// TestColoredExactlyWhenUnstamped pins the invariant behind the single-load
// membership test callOf[u] == id: at every wave boundary of a multi-depth
// solve, a node is colored exactly when its call stamp is −1.
func TestColoredExactlyWhenUnstamped(t *testing.T) {
	g, err := graph.GNP(400, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, compact := range []bool{false, true} {
		p := DefaultParams()
		p.CompactPalettes = compact
		boundaries := 0
		tr := solveWaves(t, graph.DeltaPlus1Instance(g), p, func(s *solver) {
			boundaries++
			for v := range s.bign {
				if colored, unstamped := s.color[v] != graph.NoColor, s.callOf[v] == -1; colored != unstamped {
					t.Fatalf("compact=%v, before wave %d: node %d colored=%v but callOf=%d",
						compact, s.trace.Waves+1, v, colored, s.callOf[v])
				}
			}
		})
		if tr.MaxRecursionDepth() < 2 {
			t.Fatalf("compact=%v: recursion depth %d; want a multi-depth solve", compact, tr.MaxRecursionDepth())
		}
		t.Logf("compact=%v: %d wave boundaries checked, depth %d", compact, boundaries, tr.MaxRecursionDepth())
	}
}
