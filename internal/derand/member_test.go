package derand

import (
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/hashing"
)

// These tests pin the hash-member behavior the derandomization engine
// depends on, ahead of the planned allocation work on the candidate path
// (ROADMAP: "hash Member coefficient slices" are the next lowspace alloc
// target). Any buffer-reuse optimization must keep all of this true.

// TestMemberDeterministicEnumeration: the candidate enumeration Select
// walks — F.Member(mix(idx, stream)) — is a pure function of the index:
// identical coefficients and identical evaluations on every call.
func TestMemberDeterministicEnumeration(t *testing.T) {
	f1, f2 := testFamilies(t)
	for idx := uint64(0); idx < 64; idx++ {
		for stream := uint64(1); stream <= 2; stream++ {
			fam := f1
			if stream == 2 {
				fam = f2
			}
			a := fam.Member(mix(idx, stream))
			b := fam.Member(mix(idx, stream))
			ca, cb := a.Coefficients(), b.Coefficients()
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("idx %d stream %d: coefficient %d differs (%d vs %d)",
						idx, stream, i, ca[i], cb[i])
				}
			}
			for x := int64(0); x < 16; x++ {
				if a.Eval(x) != b.Eval(x) {
					t.Fatalf("idx %d stream %d: Eval(%d) differs", idx, stream, x)
				}
			}
		}
	}
}

// TestMemberBuffersIndependent: Member must hand out a fresh coefficient
// buffer per call. Select holds Pair values across batches (the winning
// candidate outlives the batch that produced it), so a Member that quietly
// reused one buffer would corrupt earlier pairs — exactly the bug class a
// future pooling change could introduce.
func TestMemberBuffersIndependent(t *testing.T) {
	f1, _ := testFamilies(t)
	held := f1.Member(mix(3, 1))
	want := make([]int64, 16)
	for x := range want {
		want[x] = held.Eval(int64(x))
	}
	// Churn the family: if Member shared state, these would clobber `held`.
	for idx := uint64(0); idx < 256; idx++ {
		_ = f1.Member(mix(idx, 1))
	}
	for x := range want {
		if got := held.Eval(int64(x)); got != want[x] {
			t.Fatalf("held member changed after later Member calls: Eval(%d) = %d, want %d",
				x, got, want[x])
		}
	}
}

// TestMemberIntoMatchesMember: the reuse variant enumerates the identical
// family members, and with an adequate buffer performs zero allocations —
// the property the candidate-path optimization will rely on.
func TestMemberIntoMatchesMember(t *testing.T) {
	f1, _ := testFamilies(t)
	var buf []uint64
	for idx := uint64(0); idx < 64; idx++ {
		want := f1.Member(mix(idx, 1))
		var got hashing.Hash
		got, buf = f1.MemberInto(mix(idx, 1), buf)
		for x := int64(0); x < 16; x++ {
			if got.Eval(x) != want.Eval(x) {
				t.Fatalf("idx %d: MemberInto Eval(%d) = %d, Member = %d",
					idx, x, got.Eval(x), want.Eval(x))
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, buf = f1.MemberInto(mix(7, 1), buf)
	})
	if allocs != 0 {
		t.Fatalf("MemberInto with an adequate buffer allocates %.1f times per call, want 0", allocs)
	}
}

// TestMemberIntoAliasing pins the documented invalidation contract: a
// MemberInto hash is a view of its buffer, so reusing the buffer turns the
// old hash into the new member. Callers (the batch loops) must finish
// evaluating a candidate before its slot is reused.
func TestMemberIntoAliasing(t *testing.T) {
	f1, _ := testFamilies(t)
	first, buf := f1.MemberInto(mix(1, 1), nil)
	reference := f1.Member(mix(2, 1))
	second, _ := f1.MemberInto(mix(2, 1), buf)
	for x := int64(0); x < 16; x++ {
		if first.Eval(x) != reference.Eval(x) {
			t.Fatalf("after buffer reuse the old hash must alias the new member; Eval(%d) = %d, want %d",
				x, first.Eval(x), reference.Eval(x))
		}
		if second.Eval(x) != reference.Eval(x) {
			t.Fatalf("second MemberInto diverges from Member at Eval(%d)", x)
		}
	}
}

// TestSelectionStableUnderSharedScratch: Select's result must not depend
// on where the cost is evaluated — the fabric selection, with the cost held
// by one worker, picks the candidate a plain scan of the enumeration
// (index Salt, Salt+1, … through Member) picks.
func TestSelectionStableUnderSharedScratch(t *testing.T) {
	f1, f2 := testFamilies(t)
	cost := func(p Pair) int64 {
		if p.H1.Eval(13)%3 == 0 {
			return 0
		}
		return 5
	}
	nw := cclique.New(8)
	sel := &VecSelector{F1: f1, F2: f2, PerCand: 1, BatchWidth: 4, Salt: 3}
	res, err := sel.Select(nw, 4, 0, perCandidate(func(w int, p Pair) int64 {
		if w != 0 {
			return 0
		}
		return cost(p)
	}), Total)
	if err != nil {
		t.Fatal(err)
	}
	idx := sel.Salt
	for cost(Pair{H1: f1.Member(mix(idx, 1)), H2: f2.Member(mix(idx, 2))}) > 0 {
		idx++
	}
	if res.Pair.Index != idx {
		t.Fatalf("fabric selection chose index %d, the enumeration scan %d — enumeration drifted",
			res.Pair.Index, idx)
	}
	if res.Stats.Candidates != int(idx-sel.Salt)+1 {
		t.Fatalf("counted %d candidates, the scan %d", res.Stats.Candidates, idx-sel.Salt+1)
	}
}
