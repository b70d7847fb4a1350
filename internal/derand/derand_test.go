package derand

import (
	"errors"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
	"ccolor/internal/hashing"
	"ccolor/internal/mpc"
)

// perCandidate adapts a per-(worker, candidate) cost to a PerCand-1
// LocalVec: candidate i's contribution is cost(w, cands[i]).
func perCandidate(cost func(w int, p Pair) int64) LocalVec {
	return func(w int, cands []Pair, out []int64) {
		for i, p := range cands {
			out[i] = cost(w, p)
		}
	}
}

func testFamilies(t *testing.T) (hashing.Family, hashing.Family) {
	t.Helper()
	f1, err := hashing.NewFamily(4, 1000, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := hashing.NewFamily(4, 1000, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	return f1, f2
}

func TestSelectFindsCandidate(t *testing.T) {
	f1, f2 := testFamilies(t)
	nw := cclique.New(12)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 4}
	// Cost: number of workers whose ID hashes to bin 0 — some candidate
	// scatters them enough to hit a generous target.
	res, err := sel.Select(nw, 4, 6, perCandidate(func(w int, p Pair) int64 {
		if p.H1.Eval(int64(w)) == 0 {
			return 1
		}
		return 0
	}), Total)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Cost > 6 {
		t.Fatalf("selected cost %d exceeds target", st.Cost)
	}
	// Reconstructing the member from the index must reproduce the hash.
	re := f1.Member(mix(res.Pair.Index, 1))
	for x := int64(0); x < 12; x++ {
		if re.Eval(x) != res.Pair.H1.Eval(x) {
			t.Fatalf("winner's h1 differs from Member(index) at %d", x)
		}
	}
	if st.Candidates < 1 || st.Batches < 1 {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestSelectDeterministic(t *testing.T) {
	f1, f2 := testFamilies(t)
	cost := func(w int, p Pair) int64 {
		if p.H1.Eval(int64(w))%2 == 0 {
			return 1
		}
		return 0
	}
	run := func() uint64 {
		nw := cclique.New(8)
		sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 4}
		res, err := sel.Select(nw, 4, 4, perCandidate(cost), Total)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pair.Index
	}
	if run() != run() {
		t.Fatal("selection not deterministic")
	}
}

func TestSelectExhausted(t *testing.T) {
	f1, f2 := testFamilies(t)
	nw := cclique.New(4)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 2, MaxBatches: 3}
	res, err := sel.Select(nw, 4, -1, perCandidate(func(w int, p Pair) int64 { return 0 }), Total)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("expected ErrExhausted, got %v", err)
	}
	if res.Stats.Candidates != 6 {
		t.Fatalf("evaluated %d candidates, want 6", res.Stats.Candidates)
	}
}

func TestSelectBestArgmin(t *testing.T) {
	f1, f2 := testFamilies(t)
	nw := cclique.New(6)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 8}
	// Cost depends only on the candidate index parity via the hash of a
	// fixed point; the argmin must be the minimum over the whole budget.
	costOf := func(p Pair) int64 { return p.H1.Eval(17) }
	res, err := sel.SelectMin(nw, 4, 2, perCandidate(func(w int, p Pair) int64 {
		if w != 0 {
			return 0
		}
		return costOf(p)
	}), Total)
	if err != nil {
		t.Fatal(err)
	}
	pair, st := res.Pair, res.Stats
	if costOf(pair) != st.Cost {
		t.Fatal("returned pair does not match reported cost")
	}
	// Recompute the true minimum over the same enumeration.
	want := int64(1 << 62)
	for idx := uint64(0); idx < 16; idx++ {
		p := Pair{H1: f1.Member(mix(idx, 1))}
		if c := costOf(p); c < want {
			want = c
		}
	}
	if st.Cost != want {
		t.Fatalf("argmin cost %d, true min %d", st.Cost, want)
	}
}

func TestSelectVec(t *testing.T) {
	f1, f2 := testFamilies(t)
	nw := cclique.New(10)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 3, BatchWidth: 4}
	res, err := sel.Select(nw, 4, 10, func(w int, cands []Pair, out []int64) {
		if len(out) != len(cands)*3 {
			t.Errorf("worker %d: out holds %d values for %d candidates", w, len(out), len(cands))
			return
		}
		for i := range cands {
			out[3*i], out[3*i+1], out[3*i+2] = 1, int64(w), 0
		}
	}, func(totals []int64) int64 {
		return totals[0] // = #workers = 10 ≤ target
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals[0] != 10 || res.Totals[1] != 45 || res.Totals[2] != 0 {
		t.Fatalf("wrong totals: %v", res.Totals)
	}
}

// TestSelectLocal: a cost that one worker holds alone — the shape of a
// centrally evaluated cost — selects a pair meeting the target.
func TestSelectLocal(t *testing.T) {
	f1, f2 := testFamilies(t)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 4}
	res, err := sel.Select(cclique.New(1), 4, 0, perCandidate(func(_ int, p Pair) int64 {
		return p.H1.Eval(99) // 0 when point 99 lands in bin 0
	}), Total)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pair.H1.Eval(99) != 0 {
		t.Fatal("selected pair does not meet target")
	}
	if res.Stats.Candidates < 1 {
		t.Fatal("no candidates evaluated")
	}
}

// TestSelectMinMatchesScan: SelectMin's winner is the first candidate of
// minimum total in enumeration order, on the congested clique, whose local
// callbacks run concurrently in per-worker windows, and on a grouped MPC
// cluster, whose callbacks share one window. The parity cost ties every
// candidate at one of two totals, so the minimum itself is tied and only
// the enumeration order picks the winner. Every budgeted candidate is
// counted.
func TestSelectMinMatchesScan(t *testing.T) {
	f1, f2 := testFamilies(t)
	const workers, width, budget = 12, 4, 3
	assign := make([]int, workers)
	for w := range assign {
		assign[w] = w / 3
	}
	cl, err := mpc.New(assign, workers/3, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	costs := map[string]func(w int, p Pair) int64{
		"bins":   func(w int, p Pair) int64 { return p.H1.Eval(int64(w)) },
		"parity": func(w int, p Pair) int64 { return (p.H1.Eval(5) + 1) % 2 },
	}
	fabrics := map[string]fabric.Fabric{"cclique": cclique.New(workers, cclique.WithParallelism(4)), "mpc": cl}
	for fname, f := range fabrics {
		for cname, cost := range costs {
			t.Run(fname+"/"+cname, func(t *testing.T) {
				sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: width, Salt: 7, WS: &Workspace{}}
				res, err := sel.SelectMin(f, 4, budget, perCandidate(cost), Total)
				if err != nil {
					t.Fatal(err)
				}
				best, bestIdx, ties := int64(-1), uint64(0), 0
				for idx := sel.Salt; idx < sel.Salt+width*budget; idx++ {
					p := Pair{H1: f1.Member(mix(idx, 1))}
					var c int64
					for w := 0; w < workers; w++ {
						c += cost(w, p)
					}
					switch {
					case best < 0 || c < best:
						best, bestIdx, ties = c, idx, 1
					case c == best:
						ties++
					}
				}
				if cname == "parity" && ties < 2 {
					t.Fatalf("parity cost left the minimum untied (%d candidates at %d)", ties, best)
				}
				if res.Pair.Index != bestIdx || res.Stats.Cost != best || res.Totals[0] != best {
					t.Fatalf("chose index %d cost %d totals %v, scan index %d cost %d",
						res.Pair.Index, res.Stats.Cost, res.Totals, bestIdx, best)
				}
				if res.Stats.Candidates != width*budget || res.Stats.Batches != budget {
					t.Fatalf("stats %+v, want %d candidates in %d batches", res.Stats, width*budget, budget)
				}
			})
		}
	}
}
