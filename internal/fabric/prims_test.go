package fabric_test

import (
	"errors"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
	"ccolor/internal/mpc"
)

// fabrics under test: an ungrouped congested clique and a grouped MPC
// cluster; every primitive must behave identically on both.
func testFabrics(t *testing.T, n int) map[string]fabric.Fabric {
	t.Helper()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i / 4 // 4 workers per machine
	}
	cl, err := mpc.New(assign, (n+3)/4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fabric.Fabric{
		"cclique": cclique.New(n),
		"mpc":     cl,
	}
}

func TestBroadcastSmall(t *testing.T) {
	for name, f := range testFabrics(t, 20) {
		t.Run(name, func(t *testing.T) {
			var ws fabric.VecScratch
			if err := ws.Broadcast(f, 4, 3, []uint64{7, 8}); err != nil {
				t.Fatal(err)
			}
			if f.Ledger().Rounds() == 0 {
				t.Fatal("broadcast charged no rounds")
			}
		})
	}
}

func TestBroadcastLarge(t *testing.T) {
	nw := cclique.New(16)
	words := make([]uint64, 40) // needs the 2-round chunked path
	for i := range words {
		words[i] = uint64(i)
	}
	var ws fabric.VecScratch
	if err := ws.Broadcast(nw, 4, 0, words); err != nil {
		t.Fatal(err)
	}
	if got := nw.Ledger().Rounds(); got != 2 {
		t.Fatalf("large broadcast took %d rounds, want 2", got)
	}
	// Payload beyond n·pairWords must be rejected.
	huge := make([]uint64, 16*4+1)
	if err := ws.Broadcast(nw, 4, 0, huge); err == nil {
		t.Fatal("oversized broadcast accepted")
	}
}

func TestAggregateVec(t *testing.T) {
	for name, f := range testFabrics(t, 24) {
		t.Run(name, func(t *testing.T) {
			vlen := 10
			var ws fabric.VecScratch
			got, err := ws.AggregateVec(f, 4, vlen, func(w int) []int64 {
				v := make([]int64, vlen)
				for j := range v {
					v[j] = int64(w + j)
				}
				return v
			})
			if err != nil {
				t.Fatal(err)
			}
			n := int64(f.Workers())
			base := n * (n - 1) / 2 // Σ w
			for j, x := range got {
				want := base + n*int64(j)
				if x != want {
					t.Fatalf("element %d = %d, want %d", j, x, want)
				}
			}
		})
	}
}

func TestAggregateVecNegative(t *testing.T) {
	nw := cclique.New(10)
	var ws fabric.VecScratch
	got, err := ws.AggregateVec(nw, 4, 3, func(w int) []int64 {
		return []int64{-1, 0, int64(-w)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -10 || got[1] != 0 || got[2] != -45 {
		t.Fatalf("negative aggregation wrong: %v", got)
	}
}

// TestAggregateVecWrongLength: a local vector of the wrong length fails the
// aggregate with a *VecLenError naming the lowest such worker and both
// lengths, instead of panicking — on the grouped path, and on the ungrouped
// one, where the check runs inside parallel staging.
func TestAggregateVecWrongLength(t *testing.T) {
	fabrics := testFabrics(t, 24)
	fabrics["cclique-parallel"] = cclique.New(64, cclique.WithParallelism(4))
	for name, f := range fabrics {
		t.Run(name, func(t *testing.T) {
			var ws fabric.VecScratch
			_, err := ws.AggregateVec(f, 4, 5, func(w int) []int64 {
				if w == 9 || w == 17 || w == 50 {
					return make([]int64, w)
				}
				return make([]int64, 5)
			})
			var le *fabric.VecLenError
			if !errors.As(err, &le) || *le != (fabric.VecLenError{Worker: 9, Len: 9, Want: 5}) {
				t.Fatalf("got err %v, want worker 9's length error", err)
			}
		})
	}
}

func TestAggregateVecTooLong(t *testing.T) {
	nw := cclique.New(4)
	var ws fabric.VecScratch
	_, err := ws.AggregateVec(nw, 2, 100, func(w int) []int64 {
		return make([]int64, 100)
	})
	if err == nil {
		t.Fatal("oversized vector accepted on per-pair-limited fabric")
	}
}

func TestGatherMany(t *testing.T) {
	for name, f := range testFabrics(t, 20) {
		t.Run(name, func(t *testing.T) {
			// Workers 0..9 send blocks to target 2; workers 10..19 to 15.
			var ws fabric.VecScratch
			got, err := ws.GatherMany(f, 4, func(w int) (int, []uint64) {
				target := 2
				if w >= 10 {
					target = 15
				}
				words := make([]uint64, w+1)
				for i := range words {
					words[i] = uint64(w*100 + i)
				}
				return target, words
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Blocks) != 20 || len(got.Off) != 21 {
				t.Fatalf("expected 20 blocks over 20 targets, got %d over %d", len(got.Blocks), len(got.Off)-1)
			}
			for _, target := range []int{2, 15} {
				blocks := got.To(target)
				lo, hi := 0, 10
				if target == 15 {
					lo, hi = 10, 20
				}
				if len(blocks) != hi-lo {
					t.Fatalf("target %d got %d blocks", target, len(blocks))
				}
				for i, b := range blocks {
					w := lo + i
					if b.From != w || len(b.Words) != w+1 {
						t.Fatalf("target %d block %d: from=%d len=%d", target, i, b.From, len(b.Words))
					}
					for j, x := range b.Words {
						if x != uint64(w*100+j) {
							t.Fatalf("payload corrupted at %d/%d", w, j)
						}
					}
				}
			}
		})
	}
}

func TestGatherManyLargeBlocks(t *testing.T) {
	// Blocks larger than n force multiple spread sub-rounds.
	n := 8
	nw := cclique.New(n)
	var ws fabric.VecScratch
	got, err := ws.GatherMany(nw, 4, func(w int) (int, []uint64) {
		if w != 3 {
			return -1, nil
		}
		words := make([]uint64, 3*n+1)
		for i := range words {
			words[i] = uint64(i * i)
		}
		return 0, words
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := got.To(0)
	if len(got.Blocks) != 1 || len(blocks) != 1 || len(blocks[0].Words) != 3*n+1 {
		t.Fatalf("bad gather: %d blocks", len(blocks))
	}
	for i, x := range blocks[0].Words {
		if x != uint64(i*i) {
			t.Fatalf("word %d corrupted", i)
		}
	}
}

func TestLedgerPhases(t *testing.T) {
	nw := cclique.New(5)
	var ws fabric.VecScratch
	nw.Ledger().SetPhase("alpha")
	if err := ws.Broadcast(nw, 4, 0, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	nw.Ledger().SetPhase("beta")
	if err := ws.Broadcast(nw, 4, 1, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	prof := nw.Ledger().PhaseProfile()
	if len(prof) != 2 || prof["alpha"].Rounds != 1 || prof["beta"].Rounds != 1 {
		t.Fatalf("phase attribution wrong: %v", prof)
	}
}

// TestAggregateVecScratchReuse: a reused scratch must return the identical
// totals and charge the identical rounds as a fresh one, across repeated
// calls on one scratch, on both an ungrouped and a grouped fabric —
// including a grouped layout change between calls (tables fully rebuilt,
// nothing stale).
func TestAggregateVecScratchReuse(t *testing.T) {
	const n, vlen = 20, 5
	local := func(salt int64) func(w int) []int64 {
		return func(w int) []int64 {
			out := make([]int64, vlen)
			for j := range out {
				out[j] = int64(w)*int64(j+1) + salt
			}
			return out
		}
	}
	var ws fabric.VecScratch
	for round := 0; round < 3; round++ {
		salt := int64(round * 11)
		for name, f := range testFabrics(t, n) {
			ref := testFabrics(t, n)[name]
			var fresh fabric.VecScratch
			want, err := fresh.AggregateVec(ref, 4, vlen, local(salt))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.AggregateVec(f, 4, vlen, local(salt))
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d %s: totals[%d] = %d, want %d", round, name, j, got[j], want[j])
				}
			}
			if got, want := f.Ledger().Rounds(), ref.Ledger().Rounds(); got != want {
				t.Fatalf("round %d %s: reused scratch charged %d rounds, fresh one %d", round, name, got, want)
			}
		}
		// A different grouped layout on the same scratch: 7 workers per
		// machine instead of 4.
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i / 7
		}
		cl, err := mpc.New(assign, (n+6)/7, 4096)
		if err != nil {
			t.Fatal(err)
		}
		cl2, err := mpc.New(assign, (n+6)/7, 4096)
		if err != nil {
			t.Fatal(err)
		}
		var fresh fabric.VecScratch
		want, err := fresh.AggregateVec(cl2, 4, vlen, local(salt))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.AggregateVec(cl, 4, vlen, local(salt))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d relayout: totals[%d] = %d, want %d", round, j, got[j], want[j])
			}
		}
	}
}
