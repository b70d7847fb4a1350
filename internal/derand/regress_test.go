package derand

import (
	"sync"
	"testing"

	"ccolor/internal/cclique"
)

// Regression tests for the MemberInto-backed candidate path: the
// workspace-reusing enumeration must produce the identical Pair stream,
// identical AggregateVec totals, and identical winners as the historical
// Member-per-candidate path. The reference is direct Member enumeration —
// exactly what the old code computed per batch.

// recordStream runs sel.Select on an 8-worker clique and captures, from
// worker 0's cost callback, the (index, h1(probe), h2(probe)) triple of
// every candidate evaluated, in evaluation order.
func recordStream(t *testing.T, sel *Selector, target int64) ([][3]uint64, Pair) {
	t.Helper()
	nw := cclique.New(8)
	var mu sync.Mutex
	var stream [][3]uint64
	pair, _, err := sel.Select(nw, 4, target, func(w int, p Pair) int64 {
		if w == 0 {
			mu.Lock()
			stream = append(stream, [3]uint64{p.Index, uint64(p.H1.Eval(17)), uint64(p.H2.Eval(23))})
			mu.Unlock()
		}
		if p.H1.Eval(int64(w))%5 == 0 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream, pair
}

// TestWorkspacePairStreamMatchesMember: with and without a Workspace, the
// candidate stream seen by the cost callbacks is the Member enumeration.
func TestWorkspacePairStreamMatchesMember(t *testing.T) {
	f1, f2 := testFamilies(t)
	mk := func(ws *Workspace) *Selector {
		return &Selector{F1: f1, F2: f2, BatchWidth: 4, MaxBatches: 8, Salt: 11, WS: ws}
	}
	bare, bareWin := recordStream(t, mk(nil), 2)
	ws := &Workspace{}
	warm, warmWin := recordStream(t, mk(ws), 2)
	if len(bare) != len(warm) {
		t.Fatalf("stream lengths differ: %d vs %d", len(bare), len(warm))
	}
	for i := range bare {
		if bare[i] != warm[i] {
			t.Fatalf("candidate %d differs: %v vs %v", i, bare[i], warm[i])
		}
	}
	if bareWin.Index != warmWin.Index {
		t.Fatalf("winners differ: %d vs %d", bareWin.Index, warmWin.Index)
	}
	// Every recorded candidate must equal direct Member enumeration — the
	// pre-refactor definition of the stream.
	for _, c := range bare {
		h1 := f1.Member(mix(c[0], 1))
		h2 := f2.Member(mix(c[0], 2))
		if uint64(h1.Eval(17)) != c[1] || uint64(h2.Eval(23)) != c[2] {
			t.Fatalf("candidate %d diverges from Member enumeration", c[0])
		}
	}
	// Reusing the same workspace for a second run must not perturb it.
	again, againWin := recordStream(t, mk(ws), 2)
	if len(again) != len(warm) || againWin.Index != warmWin.Index {
		t.Fatal("workspace reuse changed the selection")
	}
}

// TestWinnerOwnsCoefficients: the returned pair must not alias workspace
// slots — churning the workspace with later selections must leave an
// earlier winner's evaluations intact. (This is why winners are
// re-materialized via Member before they are returned; core.partition
// stores h₂ in compact-palette restriction chains that are evaluated long
// after the next selection runs.)
func TestWinnerOwnsCoefficients(t *testing.T) {
	f1, f2 := testFamilies(t)
	ws := &Workspace{}
	nw := cclique.New(8)
	sel := &Selector{F1: f1, F2: f2, BatchWidth: 4, WS: ws}
	pair, _, err := sel.SelectBest(nw, 4, 2, func(w int, p Pair) int64 {
		return p.H1.Eval(int64(w))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 16)
	for x := range want {
		want[x] = pair.H1.Eval(int64(x))
	}
	// Churn: later selections overwrite every workspace slot.
	for round := 0; round < 3; round++ {
		sel2 := &Selector{F1: f1, F2: f2, BatchWidth: 4, Salt: uint64(round + 100), WS: ws}
		if _, _, err := sel2.SelectBest(nw, 4, 2, func(w int, p Pair) int64 { return 0 }); err != nil {
			t.Fatal(err)
		}
	}
	for x := range want {
		if got := pair.H1.Eval(int64(x)); got != want[x] {
			t.Fatalf("winner changed after workspace churn: Eval(%d) = %d, want %d", x, got, want[x])
		}
	}
}

// TestVecTotalsMatchReference: VecSelector's aggregated totals with a
// reused workspace equal the locally computed sums (the AggregateVec
// ground truth), and agree with the workspace-free path.
func TestVecTotalsMatchReference(t *testing.T) {
	f1, f2 := testFamilies(t)
	const workers, perCand = 10, 3
	run := func(ws *Workspace) []int64 {
		nw := cclique.New(workers)
		sel := &VecSelector{F1: f1, F2: f2, PerCand: perCand, BatchWidth: 4, Salt: 5, WS: ws}
		res, err := sel.Select(nw, 4, 1<<40, func(w int, cands []Pair, out []int64) {
			for i, p := range cands {
				o := out[i*perCand : (i+1)*perCand]
				o[0] = 1
				o[1] = int64(w) * p.H1.Eval(int64(w)) % 7
				o[2] = p.H2.Eval(int64(w)) % 3
			}
		}, func(totals []int64) int64 {
			return totals[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Totals
	}
	bare := run(nil)
	ws := &Workspace{}
	warm := run(ws)
	for i := range bare {
		if bare[i] != warm[i] {
			t.Fatalf("totals[%d] differ: %d vs %d", i, bare[i], warm[i])
		}
	}
	// Ground truth: candidate 0 (index = salt) wins with score = workers;
	// recompute its totals locally.
	idx := uint64(5)
	h1 := f1.Member(mix(idx, 1))
	h2 := f2.Member(mix(idx, 2))
	want := make([]int64, perCand)
	for w := 0; w < workers; w++ {
		want[0]++
		want[1] += int64(w) * h1.Eval(int64(w)) % 7
		want[2] += h2.Eval(int64(w)) % 3
	}
	for i := range want {
		if warm[i] != want[i] {
			t.Fatalf("totals[%d] = %d, want locally recomputed %d", i, warm[i], want[i])
		}
	}
}

// TestSelectBestStableAcrossWorkspaceReuse: repeated SelectBest runs on one
// workspace (the MIS per-phase pattern) stay deterministic.
func TestSelectBestStableAcrossWorkspaceReuse(t *testing.T) {
	f1, f2 := testFamilies(t)
	ws := &Workspace{}
	run := func() (uint64, int64) {
		nw := cclique.New(6)
		sel := &Selector{F1: f1, F2: f2, BatchWidth: 8, WS: ws}
		pair, st, err := sel.SelectBest(nw, 4, 2, func(w int, p Pair) int64 {
			if w != 0 {
				return 0
			}
			return p.H1.Eval(17)
		})
		if err != nil {
			t.Fatal(err)
		}
		return pair.Index, st.Cost
	}
	i1, c1 := run()
	for k := 0; k < 4; k++ {
		i2, c2 := run()
		if i1 != i2 || c1 != c2 {
			t.Fatalf("run %d drifted: (%d, %d) vs (%d, %d)", k+2, i2, c2, i1, c1)
		}
	}
}

// TestHashingMemberIntoBatchContract exercises fillCandidates' slot reuse
// directly against the hashing.MemberInto aliasing contract: all
// candidates of a batch are simultaneously valid, and the next batch
// overwrites them in place.
func TestHashingMemberIntoBatchContract(t *testing.T) {
	f1, f2 := testFamilies(t)
	ws := &Workspace{}
	first := ws.fillCandidates(f1, f2, 0, 4)
	evals := make([]int64, len(first))
	for i, p := range first {
		evals[i] = p.H1.Eval(33) + p.H2.Eval(44)
	}
	// Re-check within the batch: earlier slots must still be intact.
	for i, p := range first {
		if got := p.H1.Eval(33) + p.H2.Eval(44); got != evals[i] {
			t.Fatalf("slot %d corrupted within its own batch", i)
		}
	}
	second := ws.fillCandidates(f1, f2, 100, 4)
	for i, p := range second {
		want := f1.Member(mix(100+uint64(i), 1)).Eval(33) + f2.Member(mix(100+uint64(i), 2)).Eval(44)
		if got := p.H1.Eval(33) + p.H2.Eval(44); got != want {
			t.Fatalf("batch 2 slot %d wrong after reuse: %d != %d", i, got, want)
		}
	}
}
