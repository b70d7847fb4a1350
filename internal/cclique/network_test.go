package cclique

import (
	"errors"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
)

// readRound runs one round of produce's messages and reads its frames back
// as sorted inboxes.
func readRound(f fabric.Fabric, produce func(w int) []fabric.Msg) ([][]fabric.Msg, error) {
	return fabrictest.Inboxes(f, fabrictest.Stage(produce))
}

func TestRoundDeliversSorted(t *testing.T) {
	nw := New(4)
	in, err := readRound(nw, func(w int) []fabric.Msg {
		// Everyone sends their ID to worker 0.
		if w == 0 {
			return nil
		}
		return []fabric.Msg{{To: 0, Words: []uint64{uint64(w)}}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[0]) != 3 {
		t.Fatalf("worker 0 got %d messages", len(in[0]))
	}
	for i, m := range in[0] {
		if m.From != i+1 || m.Words[0] != uint64(i+1) {
			t.Fatalf("inbox not sorted by sender: %+v", in[0])
		}
	}
}

func TestBandwidthEnforced(t *testing.T) {
	nw := New(3, WithMsgWords(2))
	_, err := readRound(nw, func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{{To: 1, Words: []uint64{1, 2, 3}}} // 3 > 2 words
	})
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("expected BandwidthError, got %v", err)
	}
	if be.From != 0 || be.To != 1 || be.Budget != 2 {
		t.Fatalf("wrong error detail: %+v", be)
	}
}

func TestBandwidthAcrossMessages(t *testing.T) {
	// Two messages to the same destination share the per-pair budget.
	nw := New(3, WithMsgWords(2))
	_, err := readRound(nw, func(w int) []fabric.Msg {
		if w != 0 {
			return nil
		}
		return []fabric.Msg{
			{To: 1, Words: []uint64{1, 2}},
			{To: 1, Words: []uint64{3}},
		}
	})
	if err == nil {
		t.Fatal("per-pair budget not enforced across messages")
	}
}

func TestOutOfRangeDestination(t *testing.T) {
	nw := New(2)
	if _, err := readRound(nw, func(w int) []fabric.Msg {
		return []fabric.Msg{{To: 5, Words: []uint64{1}}}
	}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestLedgerCounts(t *testing.T) {
	nw := New(4)
	for r := 0; r < 3; r++ {
		if _, err := readRound(nw, func(w int) []fabric.Msg {
			return []fabric.Msg{{To: (w + 1) % 4, Words: []uint64{uint64(w)}}}
		}); err != nil {
			t.Fatal(err)
		}
	}
	l := nw.Ledger()
	if l.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", l.Rounds())
	}
	if l.WordsMoved() != 12 {
		t.Fatalf("words = %d, want 12", l.WordsMoved())
	}
	if l.MaxSendLoad() != 1 || l.MaxRecvLoad() != 1 {
		t.Fatalf("loads = %d/%d, want 1/1", l.MaxSendLoad(), l.MaxRecvLoad())
	}
}

func TestParallelExecutionMatchesSerial(t *testing.T) {
	// The same produce function must yield identical results regardless of
	// the goroutine pool width (determinism requirement).
	produce := func(w int) []fabric.Msg {
		out := make([]fabric.Msg, 0, 4)
		for d := 1; d <= 4; d++ {
			out = append(out, fabric.Msg{To: (w + d) % 16, Words: []uint64{uint64(w*10 + d)}})
		}
		return out
	}
	serial := New(16, WithParallelism(1))
	parallel := New(16, WithParallelism(8))
	a, err := readRound(serial, produce)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readRound(parallel, produce)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("worker %d inbox sizes differ", w)
		}
		for i := range a[w] {
			if a[w][i].From != b[w][i].From || a[w][i].Words[0] != b[w][i].Words[0] {
				t.Fatalf("worker %d message %d differs", w, i)
			}
		}
	}
}

// TestResetRecyclesNetwork: Reset re-dimensions the node count and clears
// the ledger while the configured options survive — a session's second
// solve must be indistinguishable from one on a fresh network.
func TestResetRecyclesNetwork(t *testing.T) {
	nw := New(4, WithMsgWords(2), WithParallelism(1))
	run := func(n int) (rounds int, words int64, inboxes int) {
		in, err := readRound(nw, func(w int) []fabric.Msg {
			if w == 0 {
				return []fabric.Msg{{To: n - 1, Words: []uint64{uint64(n)}}}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Ledger().Rounds(), nw.Ledger().WordsMoved(), len(in)
	}
	r1, w1, in1 := run(4)
	if r1 != 1 || w1 != 1 || in1 != 4 {
		t.Fatalf("first run: rounds=%d words=%d inboxes=%d", r1, w1, in1)
	}

	// Grow to 7 nodes: the ledger must restart from zero and the round
	// width must follow the new n.
	nw.Reset(7)
	if nw.Workers() != 7 {
		t.Fatalf("Workers() = %d after Reset(7)", nw.Workers())
	}
	if nw.Ledger().Rounds() != 0 || nw.Ledger().WordsMoved() != 0 {
		t.Fatal("Reset did not clear the ledger")
	}
	if nw.MsgWords() != 2 {
		t.Fatalf("Reset dropped WithMsgWords: %d", nw.MsgWords())
	}
	r2, w2, in2 := run(7)
	if r2 != 1 || w2 != 1 || in2 != 7 {
		t.Fatalf("post-reset run: rounds=%d words=%d inboxes=%d", r2, w2, in2)
	}

	// Shrink below the original size: destinations beyond the new n must be
	// rejected, proving the old width is gone.
	nw.Reset(2)
	if _, err := readRound(nw, func(w int) []fabric.Msg {
		if w == 0 {
			return []fabric.Msg{{To: 5, Words: []uint64{1}}}
		}
		return nil
	}); err == nil {
		t.Fatal("send to node 5 succeeded on a 2-node reset network")
	}
	nw.Release()
}
