// Package hashing implements families of c-wise independent hash functions
// (paper Definition 2.3, Lemma 2.4) with O(log 𝔫)-bit seeds, together with
// the paper's §2.3 range mapping: hash into a power-of-two range of at least
// r·𝔫³ values, then map intervals of near-equal size onto [r], incurring a
// negligible O(𝔫⁻³) bias while preserving exact c-wise independence.
//
// The construction is the classic degree-(c−1) polynomial over the prime
// field GF(2⁶¹−1): a uniformly random member has c uniform coefficients,
// and its values on any c distinct points are independent and uniform.
package hashing

import (
	"fmt"

	"ccolor/internal/field"
)

// Family describes a family of c-wise independent hash functions
// h : [Domain] → [Range].
type Family struct {
	C      int   // independence parameter c ≥ 1
	Domain int64 // domain size (must be ≤ field.P)
	Range  int64 // range size r ≥ 1

	rangeBits uint // power-of-two intermediate range, per §2.3
}

// NewFamily builds a family. extraBits controls the intermediate
// power-of-two range (r·2^extraBits values); the paper uses
// ⌈log(r·𝔫³)⌉ bits, i.e. extraBits ≈ 3·log 𝔫. Values are clamped so the
// intermediate range fits in the 61-bit field.
func NewFamily(c int, domain, rng int64, extraBits uint) (Family, error) {
	if c < 1 {
		return Family{}, fmt.Errorf("hashing: independence c=%d < 1", c)
	}
	if domain < 1 || uint64(domain) > field.P {
		return Family{}, fmt.Errorf("hashing: domain %d out of range", domain)
	}
	if rng < 1 {
		return Family{}, fmt.Errorf("hashing: range %d < 1", rng)
	}
	bits := uint(0)
	for int64(1)<<bits < rng {
		bits++
	}
	bits += extraBits
	if bits > 57 {
		bits = 57 // keep (val * range) within uint64·shift headroom
	}
	return Family{C: c, Domain: domain, Range: rng, rangeBits: bits}, nil
}

// Hash is one member of a family.
type Hash struct {
	fam    Family
	coeffs []uint64 // len C, each < field.P
}

// Member returns the family member whose coefficients are derived from the
// 64-bit index by a fixed splitmix64 expansion. Enumerating index = 0, 1,
// 2, … walks the family in a fixed pseudo-scrambled order; this is the
// candidate order the derandomization engine (internal/derand) searches.
func (f Family) Member(index uint64) Hash {
	coeffs := make([]uint64, f.C)
	fillCoeffs(index, coeffs)
	return Hash{fam: f, coeffs: coeffs}
}

// fillCoeffs expands a member index into coefficients by the fixed
// splitmix64 stream — the single definition Member and MemberInto share.
func fillCoeffs(index uint64, coeffs []uint64) {
	state := index
	for i := range coeffs {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		coeffs[i] = field.Reduce(z)
	}
}

// MemberInto is Member writing the coefficients into buf, reusing its
// storage when the capacity suffices (one allocation only when it does
// not). It returns the member and the buffer backing it for the caller to
// keep for the next call.
//
// Aliasing contract: the returned Hash shares buf — it is valid only until
// the next MemberInto on the same buffer, which overwrites the
// coefficients in place. The derandomization engine's batch loops are the
// intended caller: every candidate in a batch is fully evaluated before
// its slot's buffer is reused (see internal/derand's buffer-reuse tests,
// which pin this contract).
func (f Family) MemberInto(index uint64, buf []uint64) (Hash, []uint64) {
	if cap(buf) < f.C {
		buf = make([]uint64, f.C)
	} else {
		buf = buf[:f.C]
	}
	fillCoeffs(index, buf)
	return Hash{fam: f, coeffs: buf}, buf
}

// Family returns the family this hash belongs to.
func (h Hash) Family() Family { return h.fam }

// NumCoefficients returns the seed length in field elements.
func (h Hash) NumCoefficients() int { return len(h.coeffs) }

// Coefficients returns a copy of the polynomial coefficients (the seed).
func (h Hash) Coefficients() []uint64 {
	out := make([]uint64, len(h.coeffs))
	copy(out, h.coeffs)
	return out
}

// Eval maps x ∈ [Domain] to a bin in [0, Range).
func (h Hash) Eval(x int64) int64 {
	v := field.EvalPoly(h.coeffs, field.Reduce(uint64(x)))
	// Intermediate power-of-two value (§2.3): low rangeBits of the field
	// value. The deviation from exact uniformity is ≤ 2^rangeBits / 2^61,
	// matching the paper's negligible-bias argument.
	val := v & ((1 << h.fam.rangeBits) - 1)
	// Interval mapping onto [Range): sizes differ by at most 1.
	return int64((val * uint64(h.fam.Range)) >> h.fam.rangeBits)
}
