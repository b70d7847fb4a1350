package cclique

import (
	"fmt"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// produceAllToAll is a messy round program: every node messages a spread of
// targets, with several equal-sender payload ties per inbox, so inbox
// determinism actually has something to get wrong.
func produceAllToAll(n int) func(v int) []fabric.Msg {
	return func(v int) []fabric.Msg {
		var out []fabric.Msg
		for k := 1; k <= 4; k++ {
			to := (v*31 + k*k) % n
			if to == v {
				to = (to + 1) % n
			}
			out = append(out, fabric.Msg{To: to, Words: []uint64{uint64(k % 2), uint64(v)}})
		}
		return out
	}
}

// TestRoundParallelismDeterminism runs the same round program serially
// (WithParallelism(1)) and with the default goroutine pool, under -race in
// CI, and requires byte-identical inboxes: scheduling must never leak into
// delivered message order or ledger accounting.
func TestRoundParallelismDeterminism(t *testing.T) {
	const n, rounds = 64, 8
	serial := New(n, WithParallelism(1))
	parallel := New(n)

	for r := 0; r < rounds; r++ {
		inS, err := readRound(serial, produceAllToAll(n))
		if err != nil {
			t.Fatal(err)
		}
		inP, err := readRound(parallel, produceAllToAll(n))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if len(inS[v]) != len(inP[v]) {
				t.Fatalf("round %d node %d: inbox sizes %d vs %d", r, v, len(inS[v]), len(inP[v]))
			}
			for i := range inS[v] {
				a, b := inS[v][i], inP[v][i]
				if a.From != b.From || a.To != b.To || len(a.Words) != len(b.Words) {
					t.Fatalf("round %d node %d msg %d: %+v vs %+v", r, v, i, a, b)
				}
				for j := range a.Words {
					if a.Words[j] != b.Words[j] {
						t.Fatalf("round %d node %d msg %d word %d: %d vs %d",
							r, v, i, j, a.Words[j], b.Words[j])
					}
				}
			}
		}
	}
	ls, lp := serial.Ledger(), parallel.Ledger()
	if ls.Rounds() != lp.Rounds() || ls.WordsMoved() != lp.WordsMoved() ||
		ls.MaxSendLoad() != lp.MaxSendLoad() || ls.MaxRecvLoad() != lp.MaxRecvLoad() {
		t.Fatalf("ledgers diverge: serial %v vs parallel %v", ls, lp)
	}
}

// produceFromGraph is a round program shaped by a real topology: every node
// messages each neighbor with a round-varying payload, so the chunked
// scheduler sees the degree skew of the registry families instead of a
// uniform synthetic spread.
func produceFromGraph(g *graph.Graph, round int) func(v int) []fabric.Msg {
	return func(v int) []fabric.Msg {
		nbrs := g.Neighbors(int32(v))
		out := make([]fabric.Msg, 0, len(nbrs))
		for _, u := range nbrs {
			out = append(out, fabric.Msg{
				To:    int(u),
				Words: []uint64{uint64(v), uint64(round), uint64(len(nbrs))},
			})
		}
		return out
	}
}

// requireSameInboxes fails unless the two inbox sets are byte-identical.
func requireSameInboxes(t *testing.T, label string, a, b [][]fabric.Msg) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d inboxes", label, len(a), len(b))
	}
	for v := range a {
		if len(a[v]) != len(b[v]) {
			t.Fatalf("%s node %d: inbox sizes %d vs %d", label, v, len(a[v]), len(b[v]))
		}
		for i := range a[v] {
			x, y := a[v][i], b[v][i]
			if x.From != y.From || x.To != y.To || len(x.Words) != len(y.Words) {
				t.Fatalf("%s node %d msg %d: %+v vs %+v", label, v, i, x, y)
			}
			for j := range x.Words {
				if x.Words[j] != y.Words[j] {
					t.Fatalf("%s node %d msg %d word %d: %d vs %d", label, v, i, j, x.Words[j], y.Words[j])
				}
			}
		}
	}
}

// TestRoundParallelismDeterminismScenarios drives every registry scenario's
// topology through the chunked worker pool and the serial baseline and
// requires byte-identical inboxes and ledgers — the runParallel rewrite
// must be invisible for all golden families, not just uniform spreads.
func TestRoundParallelismDeterminismScenarios(t *testing.T) {
	const n, rounds = 48, 5
	for _, spec := range scenario.All() {
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Graph(n, 11)
			if err != nil {
				t.Fatal(err)
			}
			serial := New(g.N(), WithParallelism(1))
			parallel := New(g.N(), WithParallelism(8))
			for r := 0; r < rounds; r++ {
				inS, err := readRound(serial, produceFromGraph(g, r))
				if err != nil {
					t.Fatal(err)
				}
				inP, err := readRound(parallel, produceFromGraph(g, r))
				if err != nil {
					t.Fatal(err)
				}
				requireSameInboxes(t, fmt.Sprintf("%s round %d", spec.Name, r), inS, inP)
			}
			ls, lp := serial.Ledger(), parallel.Ledger()
			if ls.Rounds() != lp.Rounds() || ls.WordsMoved() != lp.WordsMoved() ||
				ls.MaxSendLoad() != lp.MaxSendLoad() || ls.MaxRecvLoad() != lp.MaxRecvLoad() {
				t.Fatalf("%s: ledgers diverge: serial %v vs parallel %v", spec.Name, ls, lp)
			}
		})
	}
}
