// Package field implements arithmetic in the prime field GF(p) for the
// Mersenne prime p = 2^61 - 1, the base field of ccolor's c-wise independent
// hash families (paper §2.3). Mersenne-61 admits fast reduction after a
// 128-bit multiply, and its 61-bit size comfortably covers the hash domains
// the paper needs ([𝔫] for nodes, [𝔫²] for colors).
package field

import "math/bits"

// P is the field modulus, the Mersenne prime 2^61 - 1.
const P uint64 = (1 << 61) - 1

// Reduce maps an arbitrary uint64 into [0, P).
func Reduce(x uint64) uint64 {
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return x
}

// Add returns (a + b) mod P for a, b < P.
func Add(a, b uint64) uint64 {
	s := a + b // < 2^62, no overflow
	if s >= P {
		s -= P
	}
	return s
}

// Mul returns (a * b) mod P for a, b < P, using a 128-bit product followed
// by Mersenne folding.
func Mul(a, b uint64) uint64 {
	return Reduce128(bits.Mul64(a, b))
}

// Reduce128 returns (hi·2^64 + lo) mod P for hi < 2^60, which covers a
// sum of up to four products of field elements. With p = 2^61-1, 2^61 ≡ 1
// and so 2^64 ≡ 8: splitting lo into its low 61 bits and high 3 bits, the
// first fold is below 2^61 + 8 + 2^63 and the second below P + 8, which
// one conditional subtract maps into [0, P).
func Reduce128(hi, lo uint64) uint64 {
	res := (lo & P) + (lo >> 61) + hi*8
	res = (res & P) + (res >> 61)
	if res >= P {
		res -= P
	}
	return res
}

// MulAdd returns (a*b + c) mod P for a, b, c < P. The addend rides into the
// product's Mersenne fold, so a Horner step pays one fold chain instead of a
// full Mul followed by a separate Add normalize. Bound: with a, b < 2^61 the
// 128-bit product has hi < 2^58, so
// (lo&P) + (lo>>61) + 8·hi + c < 2^61 + 8 + 2^61 + 2^61 < 2^63 — no
// overflow — and the second fold leaves at most P + 3, which the final
// conditional subtract maps into [0, P).
func MulAdd(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	res := (lo & P) + (lo >> 61) + hi*8 + c
	res = (res & P) + (res >> 61)
	if res >= P {
		res -= P
	}
	return res
}

// Pow returns a^e mod P.
func Pow(a uint64, e uint64) uint64 {
	result := uint64(1)
	base := a % P
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// EvalPoly evaluates the polynomial Σ coeffs[i]·x^i at x by Horner's rule.
// All coefficients and x must be < P.
func EvalPoly(coeffs []uint64, x uint64) uint64 {
	n := len(coeffs)
	if n == 0 {
		return 0
	}
	acc := coeffs[n-1] // Horner's first step is 0·x + c: skip the multiply
	for i := n - 2; i >= 0; i-- {
		acc = MulAdd(acc, x, coeffs[i])
	}
	return acc
}
