package hashing

import (
	"math"
	"testing"

	"ccolor/internal/field"
)

func TestNewFamilyValidation(t *testing.T) {
	for _, tc := range []struct {
		name        string
		c           int
		domain, rng int64
		extra       uint
		wantErr     bool
	}{
		{"ok", 4, 1000, 8, 20, false},
		{"zero-c", 0, 1000, 8, 20, true},
		{"zero-domain", 4, 0, 8, 20, true},
		{"zero-range", 4, 1000, 0, 20, true},
		{"huge-domain", 4, int64(field.P) + 10, 8, 20, true},
		{"range-one", 4, 1000, 1, 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewFamily(tc.c, tc.domain, tc.rng, tc.extra)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestEvalInRange(t *testing.T) {
	fam, err := NewFamily(8, 1<<20, 7, 24)
	if err != nil {
		t.Fatal(err)
	}
	h := fam.Member(12345)
	for x := int64(0); x < 5000; x++ {
		b := h.Eval(x)
		if b < 0 || b >= 7 {
			t.Fatalf("Eval(%d) = %d out of [0,7)", x, b)
		}
	}
}

func TestMemberDeterminism(t *testing.T) {
	fam, err := NewFamily(6, 1000, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fam.Member(99), fam.Member(99)
	for x := int64(0); x < 100; x++ {
		if a.Eval(x) != b.Eval(x) {
			t.Fatalf("same member index disagrees at %d", x)
		}
	}
	c := fam.Member(100)
	same := true
	for x := int64(0); x < 100; x++ {
		if a.Eval(x) != c.Eval(x) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct member indices produced identical hash on 100 points")
	}
}

// TestMarginalUniformity checks that, over many family members, each
// point's bin distribution is near-uniform — the c-wise independent
// family's 1-wise marginal (§2.3 allows O(𝔫⁻³)-scale bias).
func TestMarginalUniformity(t *testing.T) {
	const (
		rng     = 5
		members = 4000
	)
	fam, err := NewFamily(4, 1000, rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, 17, 999} {
		counts := make([]int, rng)
		for m := 0; m < members; m++ {
			counts[fam.Member(uint64(m)).Eval(x)]++
		}
		want := float64(members) / rng
		for b, c := range counts {
			if dev := math.Abs(float64(c) - want); dev > 5*math.Sqrt(want) {
				t.Fatalf("point %d bin %d: count %d deviates from %f by %f", x, b, c, want, dev)
			}
		}
	}
}

// TestPairwiseIndependence checks the joint distribution of two points over
// many members: every bin pair should appear with near 1/r² frequency.
func TestPairwiseIndependence(t *testing.T) {
	const (
		rng     = 3
		members = 9000
	)
	fam, err := NewFamily(4, 1000, rng, 24)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[[2]int64]int)
	for m := 0; m < members; m++ {
		h := fam.Member(uint64(m))
		counts[[2]int64{h.Eval(3), h.Eval(871)}]++
	}
	want := float64(members) / (rng * rng)
	for pair, c := range counts {
		if dev := math.Abs(float64(c) - want); dev > 6*math.Sqrt(want) {
			t.Fatalf("pair %v: count %d deviates from %f by %f", pair, c, want, dev)
		}
	}
	if len(counts) != rng*rng {
		t.Fatalf("only %d of %d bin pairs observed", len(counts), rng*rng)
	}
}

func BenchmarkEval(b *testing.B) {
	fam, _ := NewFamily(8, 1<<30, 64, 24)
	h := fam.Member(3)
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += h.Eval(int64(i) & (1<<30 - 1))
	}
	_ = acc
}
