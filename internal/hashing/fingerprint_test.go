package hashing

import (
	"testing"

	"ccolor/internal/field"
)

// hornerFingerprint is the fingerprint's definition, one word per step.
func hornerFingerprint(words []uint64) uint64 {
	acc := field.Reduce(uint64(len(words)))
	for _, w := range words {
		acc = field.Add(field.Mul(acc, fpPoint), field.Reduce(w))
	}
	return acc
}

// randomWords returns n splitmix64 words from seed, every fourth of them
// at or above the field prime so the per-word reduction is exercised.
func randomWords(n int, seed uint64) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		seed += 0x9e3779b97f4a7c15
		z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		words[i] = z ^ z>>31
		if i%4 == 3 {
			words[i] |= field.P
		}
	}
	return words
}

// streamOf feeds words to a Stream in the chunks that the set bits of
// cuts mark: bit i set means a chunk ends after word i.
func streamOf(words []uint64, cuts uint64) uint64 {
	s := NewStream(int64(len(words)))
	start := 0
	for i := range words {
		if cuts>>i&1 == 1 {
			s.Write(words[start : i+1])
			start = i + 1
		}
	}
	s.Write(words[start:])
	return s.Sum()
}

// TestStreamMatchesFingerprint: Stream, folding four words per step,
// equals the one-word Horner definition over every chunking of short streams (lengths 0–17,
// all 2^(n−1) ways to cut them) and over every two-chunk split of an
// 8Ki+3-word stream; Fingerprint is the one-chunk case.
func TestStreamMatchesFingerprint(t *testing.T) {
	for n := 0; n <= 17; n++ {
		words := randomWords(n, uint64(n)+1)
		want := hornerFingerprint(words)
		if got := Fingerprint(words); got != want {
			t.Fatalf("n=%d: Fingerprint %016x, Horner %016x", n, got, want)
		}
		for cuts := uint64(0); cuts < 1<<max(n-1, 0); cuts++ {
			if got := streamOf(words, cuts); got != want {
				t.Fatalf("n=%d cuts=%b: streamed %016x, Horner %016x", n, cuts, got, want)
			}
		}
	}
	words := randomWords(8<<10+3, 99)
	want := hornerFingerprint(words)
	if got := Fingerprint(words); got != want {
		t.Fatalf("n=%d: Fingerprint %016x, Horner %016x", len(words), got, want)
	}
	for i := 0; i <= len(words); i++ {
		s := NewStream(int64(len(words)))
		s.Write(words[:i])
		s.Write(words[i:])
		if got := s.Sum(); got != want {
			t.Fatalf("n=%d split at %d: streamed %016x, Horner %016x", len(words), i, got, want)
		}
	}
}

// TestFingerprintPinned pins fingerprints to the values the one-word
// Horner loop produced before the four-word fold, so the fold cannot drift
// together with the test's own reference.
func TestFingerprintPinned(t *testing.T) {
	words := make([]uint64, 1000)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, c := range []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0},
		{words, 0x12cb4e139b0305fb},
		{[]uint64{field.P, ^uint64(0), 0, 1, 2}, 0x07abced2bacae8c6},
	} {
		if got := Fingerprint(c.words); got != c.want {
			t.Fatalf("Fingerprint of %d words = %#016x, want %#016x", len(c.words), got, c.want)
		}
	}
}
