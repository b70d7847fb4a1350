package fabric

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// referenceRound is the oracle's view of one delivered round.
type referenceRound struct {
	in         [][]Msg
	total      int64
	send, recv map[int]int64 // per charged group
	sum        []int64       // combining rounds only
}

// referenceDeliver is Deliver's test oracle, written without its counting
// sort, sender blocks or stamps: it materializes every sender's frames in
// staging order, stops at the first violation, appends each frame to its
// destination's inbox, orders every inbox with SortInbox, and sums loads
// (and a combining round's payload) directly.
func referenceDeliver(rb *RoundBuffer, opts DeliverOpts) (referenceRound, error) {
	n := rb.n
	r := referenceRound{in: make([][]Msg, n), send: map[int]int64{}, recv: map[int]int64{}}
	if opts.Skip.Sum != nil {
		r.sum = make([]int64, len(opts.Skip.Sum))
	}
	for w := 0; w < n; w++ {
		pair := map[int]int{}
		for _, m := range rb.send[w].messages() {
			nw := len(m.Words)
			if m.To < 0 || m.To >= n {
				return r, &RouteError{OutOfRange: true, From: w, To: m.To}
			}
			pair[m.To] += nw
			if opts.PairWords > 0 && pair[m.To] > opts.PairWords {
				return r, &RouteError{From: w, To: m.To, Words: pair[m.To], Budget: opts.PairWords}
			}
			if r.sum != nil {
				if nw > 0 && m.To+(nw-1)*n >= len(r.sum) {
					return r, &SumError{From: w, To: m.To, Words: nw, Len: len(r.sum)}
				}
				for s, x := range m.Words {
					r.sum[m.To+s*n] += int64(x)
				}
			}
			gw, gt := w, m.To
			if opts.GroupOf != nil {
				gw, gt = opts.GroupOf[w], opts.GroupOf[m.To]
			}
			if opts.GroupOf == nil || !opts.FreeIntraGroup || gw != gt {
				// Both groups are charged, even with zero words.
				r.send[gw] += int64(nw)
				r.send[gt] += 0
				r.recv[gt] += int64(nw)
				r.recv[gw] += 0
				r.total += int64(nw)
			}
			r.in[m.To] = append(r.in[m.To], Msg{To: m.To, From: w, Words: m.Words})
		}
	}
	for _, in := range r.in {
		SortInbox(in)
	}
	return r, nil
}

// checkAgainstReference requires one Deliver result to equal the oracle's
// on the same staged round: the error, or else every RoundStats field, the
// inboxes of a reading round (nil ones for a skipped round), and a
// combining round's sums. A failed combining round must leave sum as it
// was (all zero here).
func checkAgainstReference(t *testing.T, what string, opts DeliverOpts,
	in [][]Msg, st RoundStats, err error, ref referenceRound, referr error) {
	t.Helper()
	if referr != nil || err != nil {
		if !reflect.DeepEqual(err, referr) {
			t.Fatalf("%s: err %v, reference err %v", what, err, referr)
		}
		if slices.ContainsFunc(opts.Skip.Sum, func(x int64) bool { return x != 0 }) {
			t.Fatalf("%s: failed combining round wrote its sum", what)
		}
		return
	}
	var groups []int32
	var maxSend, maxRecv int64
	for g, x := range ref.send {
		groups = append(groups, int32(g))
		maxSend = max(maxSend, x)
		maxRecv = max(maxRecv, ref.recv[g])
	}
	slices.Sort(groups)
	if st.TotalWords != ref.total || st.MaxSendLoad != maxSend || st.MaxRecvLoad != maxRecv {
		t.Fatalf("%s: stats %+v, reference total %d send %d recv %d", what, st, ref.total, maxSend, maxRecv)
	}
	if !slices.Equal(st.Groups, groups) {
		t.Fatalf("%s: groups %v, reference %v", what, st.Groups, groups)
	}
	for _, g := range groups {
		if st.SendLoad[g] != ref.send[int(g)] || st.RecvLoad[g] != ref.recv[int(g)] {
			t.Fatalf("%s group %d: loads (%d,%d), reference (%d,%d)",
				what, g, st.SendLoad[g], st.RecvLoad[g], ref.send[int(g)], ref.recv[int(g)])
		}
	}
	if opts.Skip.Inboxes || opts.Skip.Sum != nil {
		if in != nil {
			t.Fatalf("%s: skipped round returned inboxes", what)
		}
		if !slices.Equal(opts.Skip.Sum, ref.sum) {
			t.Fatalf("%s: sum %v, reference %v", what, opts.Skip.Sum, ref.sum)
		}
		return
	}
	if len(in) != len(ref.in) {
		t.Fatalf("%s: %d inboxes, reference %d", what, len(in), len(ref.in))
	}
	for d := range in {
		if len(in[d]) != len(ref.in[d]) {
			t.Fatalf("%s inbox %d: %d msgs, reference %d", what, d, len(in[d]), len(ref.in[d]))
		}
		for i, m := range in[d] {
			rm := ref.in[d][i]
			if m.To != rm.To || m.From != rm.From || !slices.Equal(m.Words, rm.Words) {
				t.Fatalf("%s inbox %d msg %d: %+v, reference %+v", what, d, i, m, rm)
			}
		}
	}
}

// resetSenders clears every arena of the given buffers for a new round.
func resetSenders(n int, bufs []*RoundBuffer) {
	for _, rb := range bufs {
		for w := 0; w < n; w++ {
			rb.send[w].reset(w)
		}
	}
}

func putAll(bufs []*RoundBuffer, w, to int, words []uint64) {
	for _, rb := range bufs {
		rb.Sender(w).Put(to, words...)
	}
}

// randomWords draws a payload of up to three words from a tiny alphabet, so
// equal-sender equal-destination runs with duplicate payloads (the
// tie-break sort's hard case) occur often.
func randomWords(rng *rand.Rand) []uint64 {
	words := make([]uint64, rng.Intn(4))
	for i := range words {
		words[i] = uint64(rng.Intn(3))
	}
	return words
}

// stageRandomRound fills every buffer with the identical random traffic:
// per sender a handful of frames to random destinations.
func stageRandomRound(rng *rand.Rand, n int, bufs ...*RoundBuffer) {
	resetSenders(n, bufs)
	for w := 0; w < n; w++ {
		for f := rng.Intn(8); f > 0; f-- {
			putAll(bufs, w, rng.Intn(n), randomWords(rng))
		}
	}
}

// stageSkewedRound: every sender stages one to three frames, each to one of
// three owners, so every owner receives frames from every sender block —
// the shape of AggregateVec's first round and of GatherMany's collector
// rounds, which uniform random traffic never produces.
func stageSkewedRound(rng *rand.Rand, n int, bufs ...*RoundBuffer) {
	resetSenders(n, bufs)
	owners := [3]int{0, n / 2, n - 1}
	for w := 0; w < n; w++ {
		for f := 1 + rng.Intn(3); f > 0; f-- {
			putAll(bufs, w, owners[rng.Intn(len(owners))], randomWords(rng))
		}
	}
}

// stageSparseRound: about one sender in ten stages anything, so most
// arenas are empty and blocks are cut over the few live senders.
func stageSparseRound(rng *rand.Rand, n int, bufs ...*RoundBuffer) {
	resetSenders(n, bufs)
	for w := 0; w < n; w++ {
		if rng.Intn(10) != 0 {
			continue
		}
		for f := 1 + rng.Intn(6); f > 0; f-- {
			putAll(bufs, w, rng.Intn(n), randomWords(rng))
		}
	}
}

// splitEveryRound lowers the one-block threshold so every test round is
// split into as many blocks as the pool allows; the returned func restores
// it.
func splitEveryRound() func() {
	old := DeliverParallelMinWords
	DeliverParallelMinWords = 1
	return func() { DeliverParallelMinWords = old }
}

// accountingModes are the four ways a backend accounts a round.
func accountingModes(n int) []struct {
	name string
	opts DeliverOpts
} {
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = i % 7
	}
	return []struct {
		name string
		opts DeliverOpts
	}{
		{"plain", DeliverOpts{}},
		{"pair-budget", DeliverOpts{PairWords: 1 << 20}},
		{"grouped-free", DeliverOpts{GroupOf: groupOf, Groups: 7, FreeIntraGroup: true}},
		{"grouped-charged", DeliverOpts{GroupOf: groupOf, Groups: 7}},
	}
}

// roundSkips are the three kinds of round: reading, charge-only, and
// combining into a fresh zeroed sum of 4 words per worker.
var roundSkips = []struct {
	name string
	skip func(n int) Skip
}{
	{"read", func(int) Skip { return Skip{} }},
	{"charge-only", func(int) Skip { return Skip{Inboxes: true} }},
	{"combine", func(n int) Skip { return Skip{Sum: make([]int64, 4*n)} }},
}

// TestDeliverParallelMatchesSerial drives random, skewed and sparse rounds
// through Deliver at block counts 1–8 (pool widths 1–8, every round split)
// in all four accounting modes and requires the serial test oracle's
// inboxes, stats, and sums exactly — the contract that keeps the solve
// goldens byte-stable regardless of GOMAXPROCS or pool width. One buffer
// per case cycles reading, charge-only and combining rounds, so a reading
// round after a skipped one is checked for stale inboxes too.
func TestDeliverParallelMatchesSerial(t *testing.T) {
	defer splitEveryRound()()
	const n = 97
	traffic := []struct {
		name  string
		stage func(*rand.Rand, int, ...*RoundBuffer)
	}{
		{"random", stageRandomRound},
		{"skewed", stageSkewedRound},
		{"sparse", stageSparseRound},
	}
	for width := 1; width <= 8; width++ {
		pool := NewWorkPool(width)
		for _, mode := range accountingModes(n) {
			for _, tr := range traffic {
				rng := rand.New(rand.NewSource(int64(width*1009 + len(tr.name))))
				rb := AcquireRoundBuffer(n)
				for round := 0; round < 9; round++ {
					tr.stage(rng, n, rb)
					kind := roundSkips[round%len(roundSkips)]
					opts := mode.opts
					opts.Pool, opts.Skip = pool, kind.skip(n)
					ref, referr := referenceDeliver(rb, opts)
					in, st, err := rb.Deliver(opts)
					what := fmt.Sprintf("width %d %s %s round %d (%s)", width, mode.name, tr.name, round, kind.name)
					checkAgainstReference(t, what, opts, in, st, err, ref, referr)
				}
				ReleaseRoundBuffer(rb)
			}
		}
		pool.Stop()
	}
}

// TestDeliverParallelErrors pins the staging-order error contract: at every
// block count and for every kind of round, the reported error (kind, pair,
// running word count) is the oracle's — the first violation in staging
// order — even when violations fall into different sender blocks.
func TestDeliverParallelErrors(t *testing.T) {
	defer splitEveryRound()()
	const n = 64
	// Every sender sends one word to its successor. Sender 3 then sends five
	// 1-word frames to 40, overrunning a 4-word pair budget on the fifth;
	// sender oorFrom (if any) sends out of range; and sender sumFrom (if
	// any) sends a 3-word frame to n-1, whose last word lands at 3n-1, past
	// a combining round's 2n-word sum.
	stage := func(rb *RoundBuffer, oorFrom, sumFrom int) {
		resetSenders(n, []*RoundBuffer{rb})
		for w := 0; w < n; w++ {
			rb.Sender(w).Put((w+1)%n, 1)
		}
		if oorFrom >= 0 {
			rb.Sender(oorFrom).Put(n+7, 9)
		}
		if sumFrom >= 0 {
			rb.Sender(sumFrom).Put(n-1, 1, 2, 3)
		}
		for x := uint64(1); x <= 5; x++ {
			rb.Sender(3).Put(40, x)
		}
		rb.Sender(7).Put(1, 8)
	}
	kinds := []struct {
		name string
		skip func() Skip
	}{
		{"read", func() Skip { return Skip{} }},
		{"charge-only", func() Skip { return Skip{Inboxes: true} }},
		{"combine", func() Skip { return Skip{Sum: make([]int64, 2*n)} }},
	}
	cases := []struct {
		name             string
		opts             DeliverOpts
		oorFrom, sumFrom int
	}{
		{"pair-violation", DeliverOpts{PairWords: 4}, -1, -1},
		{"out-of-range", DeliverOpts{}, 5, -1},
		{"pair-before-oor", DeliverOpts{PairWords: 4}, 5, -1},
		{"oor-before-pair", DeliverOpts{PairWords: 4}, 2, -1},
		{"pair-block-before-oor-block", DeliverOpts{PairWords: 4}, 50, -1},
		{"sum-overflow", DeliverOpts{}, -1, 60},
		{"sum-before-pair", DeliverOpts{PairWords: 4}, -1, 1},
		{"pair-before-sum", DeliverOpts{PairWords: 4}, -1, 60},
	}
	for _, tc := range cases {
		for width := 1; width <= 8; width++ {
			pool := NewWorkPool(width)
			for _, kind := range kinds {
				rb := AcquireRoundBuffer(n)
				stage(rb, tc.oorFrom, tc.sumFrom)
				opts := tc.opts
				opts.Pool, opts.Skip = pool, kind.skip()
				ref, referr := referenceDeliver(rb, opts)
				mustFail := tc.oorFrom >= 0 || tc.opts.PairWords > 0 || (tc.sumFrom >= 0 && kind.name == "combine")
				if (referr != nil) != mustFail {
					t.Fatalf("%s (%s): oracle err %v", tc.name, kind.name, referr)
				}
				in, st, err := rb.Deliver(opts)
				what := fmt.Sprintf("%s width %d (%s)", tc.name, width, kind.name)
				checkAgainstReference(t, what, opts, in, st, err, ref, referr)
				ReleaseRoundBuffer(rb)
			}
			pool.Stop()
		}
	}
}

// TestDeliverParallelWideLocators runs split rounds with the packed locator
// boundary lowered, so per-block scatters exercise the wide (offset +
// sender slab) encoding as well.
func TestDeliverParallelWideLocators(t *testing.T) {
	defer splitEveryRound()()
	oldLim := locOffsetLimit
	locOffsetLimit = 8
	defer func() { locOffsetLimit = oldLim }()
	pool := NewWorkPool(4)
	defer pool.Stop()

	const n = 33
	rng := rand.New(rand.NewSource(7))
	rb := AcquireRoundBuffer(n)
	defer ReleaseRoundBuffer(rb)
	for round := 0; round < 4; round++ {
		stageRandomRound(rng, n, rb)
		opts := DeliverOpts{Pool: pool}
		ref, referr := referenceDeliver(rb, opts)
		in, st, err := rb.Deliver(opts)
		checkAgainstReference(t, fmt.Sprintf("round %d", round), opts, in, st, err, ref, referr)
	}
}

// TestCombiningRoundMatchesReadingRound stages identical AggregateVec-shaped
// traffic — every sender ships k-word frames to the owners of a 3n-element
// vector — into two buffers at pool widths 1/2/4/8, reads one and combines
// the other, and requires the combined sum to equal the reading round's
// inbox sums, with equal stats. Every payload word is near MaxInt64, so
// the sums wrap. A frame past the sum's end fails with a *SumError and
// charges nothing; an out-of-range frame fails exactly as in a reading
// round.
func TestCombiningRoundMatchesReadingRound(t *testing.T) {
	defer splitEveryRound()()
	const n, vlen = 53, 3*53 - 4
	stage := func(bufs ...*RoundBuffer) {
		resetSenders(n, bufs)
		for w := 0; w < n; w++ {
			for o := 0; o < n; o++ {
				k := (vlen - o + n - 1) / n // elements o, o+n, ... below vlen
				if o == w || k == 0 {
					continue
				}
				words := make([]uint64, k)
				for s := range words {
					words[s] = uint64(math.MaxInt64 - int64(w*s+o))
				}
				putAll(bufs, w, o, words)
			}
		}
	}
	for _, width := range []int{1, 2, 4, 8} {
		pool := NewWorkPool(width)
		read, comb := AcquireRoundBuffer(n), AcquireRoundBuffer(n)
		stage(read, comb)
		in, rst, rerr := read.Deliver(DeliverOpts{PairWords: 4, Pool: pool})
		sum := make([]int64, vlen)
		cin, cst, cerr := comb.Deliver(DeliverOpts{PairWords: 4, Pool: pool, Skip: Skip{Sum: sum}})
		if rerr != nil || cerr != nil || cin != nil {
			t.Fatalf("width %d: reading err %v, combining err %v, %d inboxes", width, rerr, cerr, len(cin))
		}
		want := make([]int64, vlen)
		wrapped := false
		for d, msgs := range in {
			for _, m := range msgs {
				for s, x := range m.Words {
					before := want[d+s*n]
					want[d+s*n] += int64(x)
					wrapped = wrapped || want[d+s*n] < before
				}
			}
		}
		if !wrapped {
			t.Fatal("test traffic never wraps past MaxInt64")
		}
		if !slices.Equal(sum, want) {
			t.Fatalf("width %d: combined sum differs from the reading round's inbox sums", width)
		}
		if rst.TotalWords != cst.TotalWords || rst.MaxSendLoad != cst.MaxSendLoad ||
			rst.MaxRecvLoad != cst.MaxRecvLoad || !slices.Equal(rst.Groups, cst.Groups) {
			t.Fatalf("width %d: reading stats %+v, combining %+v", width, rst, cst)
		}

		// One word too many: sender 5's frame to owner n-1 now reaches
		// element n-1+3n, past the 3n-4 sum.
		stage(read, comb)
		putAll([]*RoundBuffer{read, comb}, 5, n-1, []uint64{1, 2, 3, 4})
		clear(sum)
		_, _, cerr = comb.Deliver(DeliverOpts{Pool: pool, Skip: Skip{Sum: sum}})
		var se *SumError
		if !errors.As(cerr, &se) || *se != (SumError{From: 5, To: n - 1, Words: 4, Len: vlen}) {
			t.Fatalf("width %d: overflowing frame: err %v", width, cerr)
		}
		if slices.ContainsFunc(sum, func(x int64) bool { return x != 0 }) {
			t.Fatalf("width %d: failed combining round wrote its sum", width)
		}
		if _, _, rerr = read.Deliver(DeliverOpts{Pool: pool}); rerr != nil {
			t.Fatalf("width %d: reading round rejected the frame: %v", width, rerr)
		}

		stage(read, comb)
		putAll([]*RoundBuffer{read, comb}, 9, -2, []uint64{1})
		_, _, rerr = read.Deliver(DeliverOpts{PairWords: 4, Pool: pool})
		_, _, cerr = comb.Deliver(DeliverOpts{PairWords: 4, Pool: pool, Skip: Skip{Sum: sum}})
		if rerr == nil || !reflect.DeepEqual(rerr, cerr) {
			t.Fatalf("width %d: out-of-range frame: reading err %v, combining err %v", width, rerr, cerr)
		}
		ReleaseRoundBuffer(read)
		ReleaseRoundBuffer(comb)
		pool.Stop()
	}
}

// placedFrame is one frame as a placing round handed it to its callback.
type placedFrame struct {
	to    int
	words []uint64
}

// placeLog records a placing round's frames. Callbacks of different
// sender blocks run concurrently, so it locks.
type placeLog struct {
	mu     sync.Mutex
	frames []placedFrame
}

func (l *placeLog) place(to int, payload []uint64) {
	l.mu.Lock()
	l.frames = append(l.frames, placedFrame{to, slices.Clone(payload)})
	l.mu.Unlock()
}

// sortPlaced orders frames by destination, then payload, so two multisets
// compare as slices.
func sortPlaced(frames []placedFrame) {
	slices.SortFunc(frames, func(a, b placedFrame) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return slices.Compare(a.words, b.words)
	})
}

// TestPlacingRoundMatchesReadingRound stages identical random, skewed and
// sparse traffic into two buffers at block counts 1–8 (every round split)
// in all four accounting modes, reads one and places the other, and
// requires the multiset of placed (to, payload) frames to equal the
// reading round's inboxes, with equal stats.
//
// The error contract: a round Deliver rejects — here an out-of-range frame
// or a broken pair budget, staged mid-round so that earlier sender blocks
// validate cleanly — fails exactly as the reading round does and places
// nothing.
func TestPlacingRoundMatchesReadingRound(t *testing.T) {
	defer splitEveryRound()()
	const n = 97
	traffic := []struct {
		name  string
		stage func(*rand.Rand, int, ...*RoundBuffer)
	}{
		{"random", stageRandomRound},
		{"skewed", stageSkewedRound},
		{"sparse", stageSparseRound},
	}
	for width := 1; width <= 8; width++ {
		pool := NewWorkPool(width)
		for _, mode := range accountingModes(n) {
			for _, tr := range traffic {
				rng := rand.New(rand.NewSource(int64(width*7919 + len(tr.name))))
				read, plc := AcquireRoundBuffer(n), AcquireRoundBuffer(n)
				for round := 0; round < 6; round++ {
					tr.stage(rng, n, read, plc)
					opts := mode.opts
					opts.Pool = pool
					violation := ""
					switch round {
					case 4:
						violation = "out-of-range"
						putAll([]*RoundBuffer{read, plc}, n/2, n+3, []uint64{1})
					case 5:
						violation = "pair budget"
						opts.PairWords = 4
						for x := uint64(0); x < 5; x++ {
							putAll([]*RoundBuffer{read, plc}, n/2, 7, []uint64{x})
						}
					}
					what := fmt.Sprintf("width %d %s %s round %d", width, mode.name, tr.name, round)
					in, rst, rerr := read.Deliver(opts)
					var log placeLog
					opts.Skip = Skip{Place: log.place}
					pin, pst, perr := plc.Deliver(opts)
					if pin != nil {
						t.Fatalf("%s: placing round returned inboxes", what)
					}
					if violation != "" {
						if rerr == nil || !reflect.DeepEqual(rerr, perr) {
							t.Fatalf("%s (%s): reading err %v, placing err %v", what, violation, rerr, perr)
						}
						if len(log.frames) != 0 {
							t.Fatalf("%s (%s): rejected round placed %d frames", what, violation, len(log.frames))
						}
						continue
					}
					if rerr != nil || perr != nil {
						t.Fatalf("%s: reading err %v, placing err %v", what, rerr, perr)
					}
					var want []placedFrame
					for d, msgs := range in {
						for _, m := range msgs {
							want = append(want, placedFrame{d, m.Words})
						}
					}
					sortPlaced(want)
					sortPlaced(log.frames)
					if !slices.EqualFunc(want, log.frames, func(a, b placedFrame) bool {
						return a.to == b.to && slices.Equal(a.words, b.words)
					}) {
						t.Fatalf("%s: placed %d frames that differ from the reading round's %d", what, len(log.frames), len(want))
					}
					if rst.TotalWords != pst.TotalWords || rst.MaxSendLoad != pst.MaxSendLoad ||
						rst.MaxRecvLoad != pst.MaxRecvLoad || !slices.Equal(rst.Groups, pst.Groups) {
						t.Fatalf("%s: reading stats %+v, placing %+v", what, rst, pst)
					}
					for _, g := range rst.Groups {
						if rst.SendLoad[g] != pst.SendLoad[g] || rst.RecvLoad[g] != pst.RecvLoad[g] {
							t.Fatalf("%s group %d: reading loads (%d,%d), placing (%d,%d)", what, g,
								rst.SendLoad[g], rst.RecvLoad[g], pst.SendLoad[g], pst.RecvLoad[g])
						}
					}
				}
				ReleaseRoundBuffer(read)
				ReleaseRoundBuffer(plc)
			}
		}
		pool.Stop()
	}
}
