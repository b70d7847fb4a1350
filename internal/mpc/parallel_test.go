package mpc

import (
	"fmt"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/scenario"
)

// TestRoundParallelismDeterminismScenarios is the mpc twin of the cclique
// test: every registry scenario's topology runs through the cluster's
// chunked worker pool and the serial baseline, and the frames read back as
// inboxes plus ledger accounting must be byte-identical. Workers are the graph's nodes under a
// degree-weighted linear machine assignment, so machine boundaries fall
// differently per family.
func TestRoundParallelismDeterminismScenarios(t *testing.T) {
	const n, rounds = 48, 5
	for _, spec := range scenario.All() {
		t.Run(spec.Name, func(t *testing.T) {
			g, err := spec.Graph(n, 11)
			if err != nil {
				t.Fatal(err)
			}
			weight := func(v int) int64 { return int64(g.Degree(int32(v)) + 2) }
			serial, err := NewLinear(g.N(), weight, 64, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := NewLinear(g.N(), weight, 64, WithParallelism(8))
			if err != nil {
				t.Fatal(err)
			}
			produce := func(round int) func(w int) []fabric.Msg {
				return func(w int) []fabric.Msg {
					nbrs := g.Neighbors(int32(w))
					out := make([]fabric.Msg, 0, len(nbrs))
					for _, u := range nbrs {
						out = append(out, fabric.Msg{
							To:    int(u),
							Words: []uint64{uint64(w), uint64(round), uint64(len(nbrs))},
						})
					}
					return out
				}
			}
			for r := 0; r < rounds; r++ {
				inS, err := readRound(serial, produce(r))
				if err != nil {
					t.Fatal(err)
				}
				inP, err := readRound(parallel, produce(r))
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s round %d", spec.Name, r)
				if len(inS) != len(inP) {
					t.Fatalf("%s: %d vs %d inboxes", label, len(inS), len(inP))
				}
				for v := range inS {
					if len(inS[v]) != len(inP[v]) {
						t.Fatalf("%s node %d: inbox sizes %d vs %d", label, v, len(inS[v]), len(inP[v]))
					}
					for i := range inS[v] {
						x, y := inS[v][i], inP[v][i]
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
			ls, lp := serial.Ledger(), parallel.Ledger()
			if ls.Rounds() != lp.Rounds() || ls.WordsMoved() != lp.WordsMoved() ||
				ls.MaxSendLoad() != lp.MaxSendLoad() || ls.MaxRecvLoad() != lp.MaxRecvLoad() {
				t.Fatalf("%s: ledgers diverge: serial %v vs parallel %v", spec.Name, ls, lp)
			}
		})
	}
}
