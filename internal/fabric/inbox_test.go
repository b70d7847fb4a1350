package fabric_test

import (
	"math/rand"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
)

// TestSortInboxDeterministicOnEqualSenderTies pins the inbox order tests
// read placing rounds back in (fabrictest.SortInbox).
func TestSortInboxDeterministicOnEqualSenderTies(t *testing.T) {
	// Several messages from the same sender, including shared prefixes and
	// a duplicate payload: any initial permutation must sort identically.
	base := []fabric.Msg{
		{From: 3, Words: []uint64{7, 1}},
		{From: 3, Words: []uint64{7}},
		{From: 3, Words: []uint64{2, 9, 9}},
		{From: 3, Words: []uint64{7, 1}},
		{From: 1, Words: []uint64{500}},
		{From: 3, Words: nil},
	}
	var want []fabric.Msg
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		in := append([]fabric.Msg(nil), base...)
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		fabrictest.SortInbox(in)
		if want == nil {
			want = in
			// Spot-check the order itself: sender 1 first, then sender 3's
			// payloads in lexicographic word order ({} < {2,9,9} < {7} < {7,1}).
			if in[0].From != 1 || len(in[1].Words) != 0 || in[2].Words[0] != 2 ||
				len(in[3].Words) != 1 || in[3].Words[0] != 7 {
				t.Fatalf("unexpected canonical order: %v", in)
			}
			continue
		}
		for i := range in {
			if in[i].From != want[i].From || len(in[i].Words) != len(want[i].Words) {
				t.Fatalf("trial %d: permutation changed sorted order at %d: %v vs %v",
					trial, i, in, want)
			}
			for j := range in[i].Words {
				if in[i].Words[j] != want[i].Words[j] {
					t.Fatalf("trial %d: payload mismatch at %d: %v vs %v", trial, i, in, want)
				}
			}
		}
	}
}
