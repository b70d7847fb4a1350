package field

import (
	"testing"
	"testing/quick"
)

func TestReduceRange(t *testing.T) {
	cases := []uint64{0, 1, P - 1, P, P + 1, 1<<63 - 1, ^uint64(0)}
	for _, x := range cases {
		if r := Reduce(x); r >= P {
			t.Fatalf("Reduce(%d) = %d ≥ P", x, r)
		}
	}
}

func TestReduceFixedPoints(t *testing.T) {
	if Reduce(P) != 0 {
		t.Fatalf("Reduce(P) = %d, want 0", Reduce(P))
	}
	if Reduce(P-1) != P-1 {
		t.Fatalf("Reduce(P-1) = %d, want P-1", Reduce(P-1))
	}
}

func TestAddSubInverse(t *testing.T) {
	// Adding y and then its additive inverse (P − y) mod P returns x.
	f := func(a, b uint64) bool {
		x, y := Reduce(a), Reduce(b)
		return Add(Add(x, y), Reduce(P-y)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutesAndDistributes(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Reduce(a), Reduce(b), Reduce(c)
		if Mul(x, y) != Mul(y, x) {
			return false
		}
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddMatchesMulThenAdd(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Reduce(a), Reduce(b), Reduce(c)
		return MulAdd(x, y, z) == Add(Mul(x, y), z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Extremes: the bound analysis is tightest when all operands are P-1.
	for _, tc := range [][3]uint64{
		{P - 1, P - 1, P - 1},
		{P - 1, P - 1, 0},
		{0, 0, P - 1},
		{P - 1, 0, P - 1},
	} {
		if got, want := MulAdd(tc[0], tc[1], tc[2]), Add(Mul(tc[0], tc[1]), tc[2]); got != want {
			t.Fatalf("MulAdd(%d,%d,%d) = %d, want %d", tc[0], tc[1], tc[2], got, want)
		}
	}
}

func TestMulSmallValues(t *testing.T) {
	for _, tc := range []struct{ a, b, want uint64 }{
		{0, 5, 0},
		{1, 7, 7},
		{3, 4, 12},
		{P - 1, 1, P - 1},
		{P - 1, P - 1, 1}, // (-1)·(-1) = 1
	} {
		if got := Mul(tc.a, tc.b); got != tc.want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPowFermat(t *testing.T) {
	// a^(P-1) = 1 for a ≠ 0 (Fermat's little theorem).
	for _, a := range []uint64{1, 2, 12345, P - 2} {
		if got := Pow(a, P-1); got != 1 {
			t.Fatalf("Pow(%d, P-1) = %d, want 1", a, got)
		}
	}
}

func TestInv(t *testing.T) {
	// x^(P−2) is x's multiplicative inverse (Fermat).
	f := func(a uint64) bool {
		x := Reduce(a)
		if x == 0 {
			return true
		}
		return Mul(x, Pow(x, P-2)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPolyMatchesNaive(t *testing.T) {
	naive := func(coeffs []uint64, x uint64) uint64 {
		var acc uint64
		xp := uint64(1)
		for _, c := range coeffs {
			acc = Add(acc, Mul(c, xp))
			xp = Mul(xp, x)
		}
		return acc
	}
	f := func(c0, c1, c2, c3, x uint64) bool {
		coeffs := []uint64{Reduce(c0), Reduce(c1), Reduce(c2), Reduce(c3)}
		xr := Reduce(x)
		return EvalPoly(coeffs, xr) == naive(coeffs, xr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalPolyEmptyAndConstant(t *testing.T) {
	if EvalPoly(nil, 5) != 0 {
		t.Fatal("empty polynomial should evaluate to 0")
	}
	if EvalPoly([]uint64{42}, 999) != 42 {
		t.Fatal("constant polynomial should ignore x")
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := uint64(0x123456789abcdef), uint64(0xfedcba987654321)&P
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc = Mul(acc^x, y)
	}
	_ = acc
}

func BenchmarkEvalPolyDeg8(b *testing.B) {
	coeffs := make([]uint64, 8)
	for i := range coeffs {
		coeffs[i] = Reduce(uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc = EvalPoly(coeffs, acc^uint64(i))
	}
	_ = acc
}
