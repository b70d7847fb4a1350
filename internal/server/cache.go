package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// cacheKey is the canonical identity of a job, derived from the model tag
// and parameter words followed by the instance's canonical wire encoding.
// Digest is the GF(2⁶¹−1) fingerprint of that stream (the advertised
// content address); sum is a 256-bit digest of the same stream kept as the
// exactness guard — a 61-bit fingerprint collision must never serve a wrong
// result, and 32 bytes per entry is far cheaper than retaining the full
// word stream for comparison.
type cacheKey struct {
	digest uint64
	sum    [sha256.Size]byte
}

// Hex returns the content address in the form served to clients.
func (k cacheKey) Hex() string { return fmt.Sprintf("%016x", k.digest) }

func sumWords(words []uint64) [sha256.Size]byte {
	h := sha256.New()
	writeWords(h, nil, words)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// writeWords writes words to h as little-endian bytes in one Write, through
// buf, and returns buf for the next call to reuse.
func writeWords(h hash.Hash, buf []byte, words []uint64) []byte {
	buf = buf[:0]
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h.Write(buf)
	return buf
}

// keyFor builds the canonical key for a spec: a model word, a problem word,
// then the parameters that actually steer that (model × problem) pair,
// folded in via their canonical string rendering (fixed field order for a
// struct) packed bytewise into words — exactness again comes from the
// 256-bit sum. Parameters a pair ignores stay out of its key, so e.g. two
// MIS jobs differing only in coloring Params share one entry.
func keyFor(spec *Spec) cacheKey {
	words := []uint64{0, 0}
	switch spec.model() {
	case ccolor.ModelMPC:
		words[0] = 1
	case ccolor.ModelLowSpace:
		words[0] = 2
	}
	switch spec.problem() {
	case ccolor.ProblemMIS:
		words[1] = 1
	case ccolor.ProblemRulingSet:
		words[1] = 2
	}
	var paramText string
	switch {
	case spec.problem() != ccolor.ProblemColoring:
		// Set problems ignore the coloring Params; beta (normalized, so the
		// explicit default and zero coincide) and — on mpc, where it sizes
		// the linear-space cluster — the space factor are the knobs.
		paramText = fmt.Sprintf("beta=%d", spec.beta())
		if spec.model() == ccolor.ModelMPC {
			paramText = fmt.Sprintf("%s|mpcfactor=%d", paramText, spec.MPCSpaceFactor)
		}
	case spec.model() == ccolor.ModelLowSpace:
		p := ccolor.DefaultLowSpaceParams()
		if spec.LowSpace != nil {
			p = *spec.LowSpace
		}
		paramText = fmt.Sprintf("%v", p)
	case spec.model() == ccolor.ModelMPC:
		p := ccolor.DefaultParams()
		if spec.Params != nil {
			p = *spec.Params
		}
		paramText = fmt.Sprintf("%v|mpcfactor=%d", p, spec.MPCSpaceFactor)
	default: // cclique ignores MPCSpaceFactor; folding it in would split identical jobs
		p := ccolor.DefaultParams()
		if spec.Params != nil {
			p = *spec.Params
		}
		paramText = fmt.Sprintf("%v", p)
	}
	words = append(words, uint64(len(paramText))) // frame params vs instance words
	for _, b := range []byte(paramText) {
		words = append(words, uint64(b))
	}
	// Fold the instance's canonical encoding in streamed chunks: the
	// fingerprint seeds with the total stream length (known in O(1)), so a
	// large instance is keyed without ever materializing a second full copy
	// of its word stream.
	fp := hashing.NewStream(int64(len(words)) + graph.InstanceWordCount(spec.Inst))
	h := sha256.New()
	var buf []byte
	fold := func(chunk []uint64) error {
		fp.Write(chunk)
		buf = writeWords(h, buf, chunk)
		return nil
	}
	fold(words)
	graph.WriteInstanceWords(spec.Inst, fold) // fold never errors
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return cacheKey{digest: fp.Sum(), sum: sum}
}

// reportWords approximates a report's resident size in words: the coloring
// vector dominates coloring jobs, the set vector (1 byte/node) set jobs.
func reportWords(rep *ccolor.Report) int64 {
	return int64(len(rep.Coloring)) + int64((len(rep.Set)+7)/8)
}

// Cache is a thread-safe LRU over solved Reports, content-addressed by
// canonical instance hash and bounded both by entry count and by total
// stored coloring words. Entries are immutable once inserted.
type Cache struct {
	mu       sync.Mutex
	capacity int
	maxWords int64
	words    int64      // Σ len(Coloring) over entries
	ll       *list.List // front = most recently used
	byDigest map[uint64][]*list.Element
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	key    cacheKey
	report *ccolor.Report
}

// NewCache returns an LRU holding up to capacity reports totalling at most
// maxWords coloring words (maxWords ≤ 0 means unbounded bytes); capacity
// ≤ 0 disables caching (every Get misses, Put is a no-op).
func NewCache(capacity int, maxWords int64) *Cache {
	return &Cache{
		capacity: capacity,
		maxWords: maxWords,
		ll:       list.New(),
		byDigest: make(map[uint64][]*list.Element),
	}
}

// Get returns the cached report for the key, if present.
func (c *Cache) Get(key cacheKey) (*ccolor.Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byDigest[key.digest] {
		e := el.Value.(*cacheEntry)
		if e.key.sum == key.sum {
			c.ll.MoveToFront(el)
			c.hits++
			return e.report, true
		}
	}
	c.misses++
	return nil, false
}

// Put inserts a report, evicting the least recently used entry on overflow.
func (c *Cache) Put(key cacheKey, rep *ccolor.Report) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.byDigest[key.digest] {
		if el.Value.(*cacheEntry).key.sum == key.sum {
			c.ll.MoveToFront(el)
			return
		}
	}
	el := c.ll.PushFront(&cacheEntry{key: key, report: rep})
	c.byDigest[key.digest] = append(c.byDigest[key.digest], el)
	c.words += reportWords(rep)
	for c.ll.Len() > c.capacity ||
		(c.maxWords > 0 && c.words > c.maxWords && c.ll.Len() > 1) {
		c.evictOldest()
	}
}

func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	e := el.Value.(*cacheEntry)
	c.words -= reportWords(e.report)
	bucket := c.byDigest[e.key.digest]
	for i, cand := range bucket {
		if cand == el {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.byDigest, e.key.digest)
	} else {
		c.byDigest[e.key.digest] = bucket
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
