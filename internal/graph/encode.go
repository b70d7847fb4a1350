package graph

import "fmt"

// Canonical wire encoding of graphs and instances, in 64-bit machine words.
//
// Graph is already canonical storage (CSR with sorted neighbor lists) and
// palettes are sorted and deduplicated at construction, so two structurally
// equal instances always produce identical word streams. The serving layer
// fingerprints this stream (internal/hashing.Fingerprint) to content-address
// its result cache.
//
// Two access patterns are supported: the Append* forms materialize the full
// stream (fine at small n), and the Write* forms emit it in bounded chunks
// through a callback so consumers that only fold the stream — fingerprints,
// checksums, network writers — never hold a second full copy of a large
// instance. GraphWordCount/InstanceWordCount give the exact stream length in
// O(1), which streaming fingerprints need up front.

// streamChunkWords is the chunk size of the Write* encoders: 8Ki words
// (64 KiB) per emit call — large enough to amortize the callback, small
// enough to stay cache-resident.
const streamChunkWords = 1 << 13

// GraphWordCount returns the exact length of AppendGraphWords' encoding:
// 2 header words, N+1 offsets, 2M adjacency entries.
func GraphWordCount(g *Graph) int64 {
	return 2 + int64(g.N()) + 1 + int64(len(g.adj))
}

// InstanceWordCount returns the exact length of AppendInstanceWords'
// encoding: the graph words plus, per node, one length word and the
// palette colors.
func InstanceWordCount(inst *Instance) int64 {
	return GraphWordCount(inst.G) + int64(inst.G.N()) + int64(inst.PaletteMass())
}

// wordWriter buffers words into fixed-size chunks and hands each full chunk
// to emit. The chunk slice is reused: emit must fold or copy it before
// returning. A non-nil error from emit latches and aborts the stream. A
// chunk is emitted only once a further word needs its room, or by the
// final flush.
type wordWriter struct {
	buf  []uint64
	emit func([]uint64) error
	err  error
}

func (w *wordWriter) put(x uint64) {
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	w.buf = append(w.buf, x)
}

// putRun writes xs as words, converting them straight into the chunk one
// run of free space at a time rather than one capacity check per word.
func putRun[T ~int32 | ~int64](w *wordWriter, xs []T) {
	for len(xs) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		k := min(len(xs), cap(w.buf)-len(w.buf))
		run := w.buf[len(w.buf) : len(w.buf)+k]
		for i, x := range xs[:k] {
			run[i] = uint64(x)
		}
		w.buf = w.buf[:len(w.buf)+k]
		xs = xs[k:]
	}
}

func (w *wordWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		w.err = w.emit(w.buf)
	}
	w.buf = w.buf[:0]
}

// WriteGraphWords streams the canonical encoding of g — the same words as
// AppendGraphWords — to emit in chunks of at most streamChunkWords. The
// chunk slice is reused across calls; emit must not retain it.
func WriteGraphWords(g *Graph, emit func(chunk []uint64) error) error {
	w := &wordWriter{buf: make([]uint64, 0, streamChunkWords), emit: emit}
	writeGraph(w, g)
	w.flush()
	return w.err
}

func writeGraph(w *wordWriter, g *Graph) {
	w.put(uint64(g.N()))
	w.put(uint64(g.M()))
	putRun(w, g.offsets)
	putRun(w, g.adj)
}

// WriteInstanceWords streams the canonical encoding of inst — the same
// words as AppendInstanceWords — to emit in chunks of at most
// streamChunkWords. The chunk slice is reused across calls; emit must not
// retain it.
func WriteInstanceWords(inst *Instance, emit func(chunk []uint64) error) error {
	w := &wordWriter{buf: make([]uint64, 0, streamChunkWords), emit: emit}
	writeGraph(w, inst.G)
	for _, pal := range inst.Palettes {
		w.put(uint64(len(pal)))
		putRun(w, pal)
	}
	w.flush()
	return w.err
}

// AppendGraphWords appends the canonical encoding of g to dst and returns
// the extended slice: n, m, the N+1 CSR offsets, then the adjacency array.
func AppendGraphWords(dst []uint64, g *Graph) []uint64 {
	dst = append(dst, uint64(g.N()), uint64(g.M()))
	for _, o := range g.offsets {
		dst = append(dst, uint64(o))
	}
	for _, u := range g.adj {
		dst = append(dst, uint64(u))
	}
	return dst
}

// AppendInstanceWords appends the canonical encoding of inst to dst: the
// graph encoding followed by, per node, the palette length and its sorted
// colors (int64 values reinterpreted as uint64).
func AppendInstanceWords(dst []uint64, inst *Instance) []uint64 {
	dst = AppendGraphWords(dst, inst.G)
	for _, pal := range inst.Palettes {
		dst = append(dst, uint64(len(pal)))
		for _, c := range pal {
			dst = append(dst, uint64(c))
		}
	}
	return dst
}

// DecodeGraphWords decodes a graph from the prefix of a canonical word
// stream, returning the graph and the number of words consumed. It rejects
// malformed streams (truncation, inconsistent offsets, out-of-range or
// unsorted adjacency, self loops, asymmetry, node counts past the int32 ID
// space) — every graph it accepts re-encodes to exactly the consumed
// prefix, which is what keeps the serving cache's content addressing
// injective. The CSR arrays are built directly from the stream in one pass:
// no intermediate per-node lists, no second copy of the adjacency.
func DecodeGraphWords(words []uint64) (*Graph, int, error) {
	if len(words) < 2 {
		return nil, 0, fmt.Errorf("graph: decode: stream too short for header")
	}
	n := int(words[0])
	m := int(words[1])
	if n < 0 || uint64(n) != words[0] || m < 0 || uint64(m) != words[1] {
		return nil, 0, fmt.Errorf("graph: decode: implausible header n=%d m=%d", words[0], words[1])
	}
	if err := checkNodeCount(n); err != nil {
		return nil, 0, fmt.Errorf("graph: decode: %w", err)
	}
	need := 2 + (n + 1) + 2*m
	if n > len(words) || m > len(words) || need > len(words) {
		return nil, 0, fmt.Errorf("graph: decode: stream has %d words, need %d", len(words), need)
	}
	if 2*int64(m) > int64(MaxNodes) {
		return nil, 0, fmt.Errorf("graph: decode: %d adjacency entries overflow int32 offsets: %w", 2*m, ErrTooManyNodes)
	}
	offWords := words[2 : 2+n+1]
	if offWords[0] != 0 || offWords[n] != uint64(2*m) {
		return nil, 0, fmt.Errorf("graph: decode: offset bounds [%d,%d] want [0,%d]", offWords[0], offWords[n], 2*m)
	}
	offsets := make([]int32, n+1)
	for v := 1; v <= n; v++ {
		o := offWords[v]
		if o < offWords[v-1] || o > uint64(2*m) {
			return nil, 0, fmt.Errorf("graph: decode: node %d offsets [%d,%d] invalid", v-1, offWords[v-1], o)
		}
		offsets[v] = int32(o)
	}
	adjWords := words[2+n+1 : need]
	adj := make([]int32, 2*m)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		for i := lo; i < hi; i++ {
			u := adjWords[i]
			if u >= uint64(n) {
				return nil, 0, fmt.Errorf("graph: decode: node %d neighbor %d out of range", v, u)
			}
			if u == uint64(v) {
				return nil, 0, fmt.Errorf("graph: decode: node %d has a self loop", v)
			}
			if i > lo && uint64(adj[i-1]) >= u {
				return nil, 0, fmt.Errorf("graph: decode: node %d adjacency not strictly sorted", v)
			}
			adj[i] = int32(u)
		}
	}
	g := &Graph{offsets: offsets, adj: adj}
	if err := g.checkSymmetry(); err != nil {
		return nil, 0, fmt.Errorf("graph: decode: %w", err)
	}
	return g, need, nil
}

// DecodeInstanceWords decodes the canonical word stream produced by
// AppendInstanceWords, round-tripping exactly: for every accepted stream,
// AppendInstanceWords(nil, decoded) reproduces the input. Palettes must
// pass CheckPalettes (the canonical form) and satisfy p(v) > d(v).
func DecodeInstanceWords(words []uint64) (*Instance, error) {
	g, used, err := DecodeGraphWords(words)
	if err != nil {
		return nil, err
	}
	rest := words[used:]
	pals := make([]Palette, g.N())
	for v := 0; v < g.N(); v++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("graph: decode: stream ends before palette %d", v)
		}
		k := int(rest[0])
		if k < 0 || uint64(k) != rest[0] || k > len(rest)-1 {
			return nil, fmt.Errorf("graph: decode: palette %d length %d exceeds stream", v, rest[0])
		}
		pal := make(Palette, k)
		for i := range pal {
			pal[i] = Color(rest[1+i])
		}
		pals[v] = pal
		rest = rest[1+k:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("graph: decode: %d trailing words", len(rest))
	}
	if err := (&Instance{G: g, Palettes: pals}).CheckPalettes(); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return NewInstance(g, pals)
}
