package hashing

import (
	"math/bits"

	"ccolor/internal/field"
)

// fpPoint is the fixed evaluation point for Fingerprint, an arbitrary
// constant reduced into GF(2⁶¹−1). Fixing it makes fingerprints stable
// across processes and runs, which is what a content-addressed cache needs.
const fpPoint uint64 = 0x5dc7d540a940e65c % ((1 << 61) - 1)

// fpPoint2, fpPoint3 and fpPoint4 are fpPoint's powers, so Stream.Write
// folds four words per Horner step.
var (
	fpPoint2 = field.Mul(fpPoint, fpPoint)
	fpPoint3 = field.Mul(fpPoint2, fpPoint)
	fpPoint4 = field.Mul(fpPoint3, fpPoint)
)

// Fingerprint returns a deterministic 61-bit content fingerprint of a word
// stream: the Horner evaluation of the stream (plus its length, so prefixes
// of zero words are distinguished) as a polynomial over GF(2⁶¹−1) at a fixed
// point. Each input word is folded to < 2⁶¹−1 first, so callers that need
// exactness (e.g. the serving cache) must still compare full streams on a
// fingerprint match; distinct streams collide with probability ≈ len/2⁶¹
// under the usual Schwartz–Zippel argument for a random point. It is a
// Stream fed the whole slice as one chunk.
func Fingerprint(words []uint64) uint64 {
	s := Stream{acc: field.Reduce(uint64(len(words)))}
	s.Write(words)
	return s.acc
}

// Stream is an incremental Fingerprint over a word stream whose total
// length is known up front (the fingerprint seeds with the length, so it
// cannot be computed without it). Feeding exactly totalWords words through
// Write and calling Sum yields the same value as Fingerprint over the
// concatenated stream — callers stream large canonical encodings chunk by
// chunk instead of materializing a second full copy.
type Stream struct {
	acc uint64
}

// NewStream starts a streaming fingerprint of a stream of exactly
// totalWords words.
func NewStream(totalWords int64) *Stream {
	return &Stream{acc: field.Reduce(uint64(totalWords))}
}

// Write folds the next chunk of the stream into the fingerprint. Four
// Horner steps fold as one, acc·x⁴ + w₀·x³ + w₁·x² + w₂·x + w₃: the four
// products are summed in 128 bits (each is below 2¹²², so the sum is below
// 2¹²⁴) and reduced once, which leaves one multiply per four words on the
// serial chain through acc.
func (s *Stream) Write(words []uint64) {
	acc := s.acc
	for ; len(words) >= 4; words = words[4:] {
		h0, l0 := bits.Mul64(acc, fpPoint4)
		h1, l1 := bits.Mul64(field.Reduce(words[0]), fpPoint3)
		h2, l2 := bits.Mul64(field.Reduce(words[1]), fpPoint2)
		h3, l3 := bits.Mul64(field.Reduce(words[2]), fpPoint)
		lo, c1 := bits.Add64(l0, l1, 0)
		lo, c2 := bits.Add64(lo, l2, 0)
		lo, c3 := bits.Add64(lo, l3, 0)
		hi := h0 + h1 + h2 + h3 + c1 + c2 + c3
		acc = field.Add(field.Reduce128(hi, lo), field.Reduce(words[3]))
	}
	for _, w := range words {
		acc = field.MulAdd(acc, fpPoint, field.Reduce(w))
	}
	s.acc = acc
}

// Sum returns the fingerprint of the words written so far; it equals
// Fingerprint(all words) once exactly totalWords words have been written.
func (s *Stream) Sum() uint64 { return s.acc }
