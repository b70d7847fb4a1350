package fabric

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// referenceRound is the oracle's view of one delivered round.
type referenceRound struct {
	frames     [][]Msg // per sender, in staging order
	total      int64
	send, recv map[int]int64 // per charged group
	sum        []int64       // combining rounds only
}

// referenceDeliver is Deliver's test oracle, written without its sender
// blocks or stamps: it reads every sender's frames in staging order, stops
// at the first violation, and sums loads (and a combining round's payload)
// directly. Its frames are what a placing round must place.
func referenceDeliver(rb *RoundBuffer, opts DeliverOpts) (referenceRound, error) {
	n := rb.n
	r := referenceRound{frames: make([][]Msg, n), send: map[int]int64{}, recv: map[int]int64{}}
	if opts.Sink.Sum != nil {
		r.sum = make([]int64, len(opts.Sink.Sum))
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
			m.From = w
			r.frames[w] = append(r.frames[w], m)
		}
	}
	return r, nil
}

// placeLog records a placing round's frames per sender, in the order they
// were placed, with copied payloads. One goroutine places each sender's
// frames, so the per-sender lists need no lock.
type placeLog [][]Msg

func newPlaceLog(n int) placeLog { return make(placeLog, n) }

func (l placeLog) place(from, to int, payload []uint64) {
	l[from] = append(l[from], Msg{To: to, From: from, Words: slices.Clone(payload)})
}

// sameFrames reports whether two per-sender frame lists are equal frame
// for frame, treating empty and nil payloads and lists alike.
func sameFrames(a, b [][]Msg) bool {
	return slices.EqualFunc(a, b, func(x, y []Msg) bool {
		return slices.EqualFunc(x, y, func(m, o Msg) bool {
			return m.To == o.To && m.From == o.From && slices.Equal(m.Words, o.Words)
		})
	})
}

// checkAgainstReference requires one Deliver result to equal the oracle's
// on the same staged round: the error, or else every RoundStats field, a
// placing round's frames (log, nil for the other kinds) sender by sender
// in staging order, and a combining round's sums. A failed round must
// leave its sum as it was (all zero here) and place nothing.
func checkAgainstReference(t *testing.T, what string, opts DeliverOpts,
	log placeLog, st RoundStats, err error, ref referenceRound, referr error) {
	t.Helper()
	if referr != nil || err != nil {
		if !reflect.DeepEqual(err, referr) {
			t.Fatalf("%s: err %v, reference err %v", what, err, referr)
		}
		if slices.ContainsFunc(opts.Sink.Sum, func(x int64) bool { return x != 0 }) {
			t.Fatalf("%s: failed combining round wrote its sum", what)
		}
		if slices.ContainsFunc(log, func(f []Msg) bool { return len(f) > 0 }) {
			t.Fatalf("%s: failed placing round placed frames", what)
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
	if !slices.Equal(opts.Sink.Sum, ref.sum) {
		t.Fatalf("%s: sum %v, reference %v", what, opts.Sink.Sum, ref.sum)
	}
	if log != nil && !sameFrames(log, ref.frames) {
		t.Fatalf("%s: placed frames differ from the reference's", what)
	}
}

// resetSenders clears every arena of the given buffers for a new round.
func resetSenders(n int, bufs []*RoundBuffer) {
	for _, rb := range bufs {
		for w := 0; w < n; w++ {
			rb.send[w].reset()
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

// roundSinks are the three kinds of round: charge-only, combining into a
// fresh zeroed sum of 4 words per worker, and placing into a fresh log.
var roundSinks = []struct {
	name string
	sink func(n int) (Sink, placeLog)
}{
	{"charge-only", func(int) (Sink, placeLog) { return Sink{}, nil }},
	{"combine", func(n int) (Sink, placeLog) { return Sink{Sum: make([]int64, 4*n)}, nil }},
	{"place", func(n int) (Sink, placeLog) {
		log := newPlaceLog(n)
		return Sink{Place: log.place}, log
	}},
}

// TestDeliverParallelMatchesSerial drives random, skewed and sparse rounds
// through Deliver at block counts 1–8 (pool widths 1–8, every round split)
// in all four accounting modes and requires the serial test oracle's
// stats, sums and placed frames exactly — the contract that keeps the
// solve goldens byte-stable regardless of GOMAXPROCS or pool width. One
// buffer per case cycles charge-only, combining and placing rounds, so
// stale per-destination and per-group state from an earlier round would
// show.
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
					kind := roundSinks[round%len(roundSinks)]
					opts := mode.opts
					var log placeLog
					opts.Pool = pool
					opts.Sink, log = kind.sink(n)
					ref, referr := referenceDeliver(rb, opts)
					st, err := rb.Deliver(opts)
					what := fmt.Sprintf("width %d %s %s round %d (%s)", width, mode.name, tr.name, round, kind.name)
					checkAgainstReference(t, what, opts, log, st, err, ref, referr)
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
		sink func() (Sink, placeLog)
	}{
		{"charge-only", func() (Sink, placeLog) { return Sink{}, nil }},
		{"combine", func() (Sink, placeLog) { return Sink{Sum: make([]int64, 2*n)}, nil }},
		{"place", func() (Sink, placeLog) {
			log := newPlaceLog(n)
			return Sink{Place: log.place}, log
		}},
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
				var log placeLog
				opts.Pool = pool
				opts.Sink, log = kind.sink()
				ref, referr := referenceDeliver(rb, opts)
				mustFail := tc.oorFrom >= 0 || tc.opts.PairWords > 0 || (tc.sumFrom >= 0 && kind.name == "combine")
				if (referr != nil) != mustFail {
					t.Fatalf("%s (%s): oracle err %v", tc.name, kind.name, referr)
				}
				st, err := rb.Deliver(opts)
				what := fmt.Sprintf("%s width %d (%s)", tc.name, width, kind.name)
				checkAgainstReference(t, what, opts, log, st, err, ref, referr)
				ReleaseRoundBuffer(rb)
			}
			pool.Stop()
		}
	}
}

// TestCombiningRoundMatchesReadingRound stages identical AggregateVec-shaped
// traffic — every sender ships k-word frames to the owners of a 3n-element
// vector — into two buffers at pool widths 1/2/4/8, places one and
// combines the other, and requires the combined sum to equal the sums of
// the placed frames and the oracle's, with equal stats. Every payload word
// is near MaxInt64, so the sums wrap. A frame past the sum's end fails the
// combining round with a *SumError and charges nothing, while a placing
// round takes it; an out-of-range frame fails both alike.
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
	placing := func(pool *WorkPool, pairWords int) (DeliverOpts, placeLog) {
		log := newPlaceLog(n)
		return DeliverOpts{PairWords: pairWords, Pool: pool, Sink: Sink{Place: log.place}}, log
	}
	for _, width := range []int{1, 2, 4, 8} {
		pool := NewWorkPool(width)
		plc, comb := AcquireRoundBuffer(n), AcquireRoundBuffer(n)
		stage(plc, comb)
		popts, log := placing(pool, 4)
		pst, perr := plc.Deliver(popts)
		sum := make([]int64, vlen)
		copts := DeliverOpts{PairWords: 4, Pool: pool, Sink: Sink{Sum: sum}}
		ref, referr := referenceDeliver(comb, copts)
		cst, cerr := comb.Deliver(copts)
		if perr != nil || cerr != nil || referr != nil {
			t.Fatalf("width %d: placing err %v, combining err %v, oracle err %v", width, perr, cerr, referr)
		}
		want := make([]int64, vlen)
		wrapped := false
		for _, frames := range log {
			for _, m := range frames {
				for s, x := range m.Words {
					before := want[m.To+s*n]
					want[m.To+s*n] += int64(x)
					wrapped = wrapped || want[m.To+s*n] < before
				}
			}
		}
		if !wrapped {
			t.Fatal("test traffic never wraps past MaxInt64")
		}
		if !slices.Equal(sum, want) || !slices.Equal(sum, ref.sum) {
			t.Fatalf("width %d: combined sum differs from the placed frames' sums or the oracle's", width)
		}
		if pst.TotalWords != cst.TotalWords || pst.MaxSendLoad != cst.MaxSendLoad ||
			pst.MaxRecvLoad != cst.MaxRecvLoad || !slices.Equal(pst.Groups, cst.Groups) {
			t.Fatalf("width %d: placing stats %+v, combining %+v", width, pst, cst)
		}

		// One word too many: sender 5's frame to owner n-1 now reaches
		// element n-1+3n, past the 3n-4 sum.
		stage(plc, comb)
		putAll([]*RoundBuffer{plc, comb}, 5, n-1, []uint64{1, 2, 3, 4})
		clear(sum)
		_, cerr = comb.Deliver(DeliverOpts{Pool: pool, Sink: Sink{Sum: sum}})
		var se *SumError
		if !errors.As(cerr, &se) || *se != (SumError{From: 5, To: n - 1, Words: 4, Len: vlen}) {
			t.Fatalf("width %d: overflowing frame: err %v", width, cerr)
		}
		if slices.ContainsFunc(sum, func(x int64) bool { return x != 0 }) {
			t.Fatalf("width %d: failed combining round wrote its sum", width)
		}
		popts, _ = placing(pool, 0)
		if _, perr = plc.Deliver(popts); perr != nil {
			t.Fatalf("width %d: placing round rejected the frame: %v", width, perr)
		}

		stage(plc, comb)
		putAll([]*RoundBuffer{plc, comb}, 9, -2, []uint64{1})
		popts, _ = placing(pool, 4)
		_, perr = plc.Deliver(popts)
		_, cerr = comb.Deliver(DeliverOpts{PairWords: 4, Pool: pool, Sink: Sink{Sum: sum}})
		if perr == nil || !reflect.DeepEqual(perr, cerr) {
			t.Fatalf("width %d: out-of-range frame: placing err %v, combining err %v", width, perr, cerr)
		}
		ReleaseRoundBuffer(plc)
		ReleaseRoundBuffer(comb)
		pool.Stop()
	}
}

// TestPlacingRoundMatchesReadingRound stages random, skewed and sparse
// traffic at block counts 1–8 (every round split) in all four accounting
// modes, places it, and requires the placed frames to be the oracle's —
// the frames a reading round delivered — sender by sender in staging
// order, with equal stats.
//
// The error contract: a round Deliver rejects — here an out-of-range frame
// or a broken pair budget, staged mid-round so that earlier sender blocks
// validate cleanly — fails exactly as the oracle does and places nothing.
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
				rb := AcquireRoundBuffer(n)
				for round := 0; round < 6; round++ {
					tr.stage(rng, n, rb)
					opts := mode.opts
					opts.Pool = pool
					violation := ""
					switch round {
					case 4:
						violation = "out-of-range"
						rb.Sender(n/2).Put(n+3, 1)
					case 5:
						violation = "pair budget"
						opts.PairWords = 4
						for x := uint64(0); x < 5; x++ {
							rb.Sender(n/2).Put(7, x)
						}
					}
					log := newPlaceLog(n)
					opts.Sink = Sink{Place: log.place}
					ref, referr := referenceDeliver(rb, opts)
					what := fmt.Sprintf("width %d %s %s round %d", width, mode.name, tr.name, round)
					if (referr != nil) != (violation != "") {
						t.Fatalf("%s: oracle err %v", what, referr)
					}
					st, err := rb.Deliver(opts)
					checkAgainstReference(t, what, opts, log, st, err, ref, referr)
				}
				ReleaseRoundBuffer(rb)
			}
		}
		pool.Stop()
	}
}
