package fabric

import (
	"math/rand"
	"reflect"
	"testing"
)

// stageRandomRound fills both buffers with the identical random traffic
// pattern: per sender a handful of frames to random destinations with short
// payloads drawn from a tiny alphabet, so equal-sender equal-destination
// runs with duplicate payloads (the tie-break sort's hard case) occur often.
func stageRandomRound(rng *rand.Rand, n int, bufs ...*RoundBuffer) {
	for _, rb := range bufs {
		for w := 0; w < n; w++ {
			rb.send[w].reset(w)
		}
	}
	for w := 0; w < n; w++ {
		frames := rng.Intn(8)
		for f := 0; f < frames; f++ {
			to := rng.Intn(n)
			words := make([]uint64, rng.Intn(4))
			for i := range words {
				words[i] = uint64(rng.Intn(3))
			}
			for _, rb := range bufs {
				rb.Sender(w).Put(to, words...)
			}
		}
	}
}

// freshRoundBuffer returns a buffer that has never delivered a round; the
// pool behind AcquireRoundBuffer may hand back a used one.
func freshRoundBuffer(n int) *RoundBuffer {
	rb := &RoundBuffer{n: n, send: make([]SendBuf, n)}
	for w := range rb.send {
		rb.send[w].reset(w)
	}
	return rb
}

// compareStats requires two deliveries of identical traffic to agree on
// their error or, when both succeed, on every RoundStats field. It reports
// whether both succeeded.
func compareStats(t *testing.T, round int, sst, pst RoundStats, serr, perr error) bool {
	t.Helper()
	if (serr == nil) != (perr == nil) {
		t.Fatalf("round %d: serial err %v, parallel err %v", round, serr, perr)
	}
	if serr != nil {
		if !reflect.DeepEqual(serr, perr) {
			t.Fatalf("round %d: serial err %v, parallel err %v", round, serr, perr)
		}
		return false
	}
	if sst.TotalWords != pst.TotalWords || sst.MaxSendLoad != pst.MaxSendLoad || sst.MaxRecvLoad != pst.MaxRecvLoad {
		t.Fatalf("round %d: stats serial %+v parallel %+v", round, sst, pst)
	}
	if !reflect.DeepEqual(sst.Groups, pst.Groups) {
		t.Fatalf("round %d: groups serial %v parallel %v", round, sst.Groups, pst.Groups)
	}
	for _, g := range sst.Groups {
		if sst.SendLoad[g] != pst.SendLoad[g] || sst.RecvLoad[g] != pst.RecvLoad[g] {
			t.Fatalf("round %d group %d: loads serial (%d,%d) parallel (%d,%d)",
				round, g, sst.SendLoad[g], sst.RecvLoad[g], pst.SendLoad[g], pst.RecvLoad[g])
		}
	}
	return true
}

func compareDeliveries(t *testing.T, round int,
	sin, pin [][]Msg, sst, pst RoundStats, serr, perr error) {
	t.Helper()
	if !compareStats(t, round, sst, pst, serr, perr) {
		return
	}
	if len(sin) != len(pin) {
		t.Fatalf("round %d: %d vs %d inboxes", round, len(sin), len(pin))
	}
	for d := range sin {
		if len(sin[d]) != len(pin[d]) {
			t.Fatalf("round %d inbox %d: %d vs %d msgs", round, d, len(sin[d]), len(pin[d]))
		}
		for i := range sin[d] {
			sm, pm := sin[d][i], pin[d][i]
			if sm.To != pm.To || sm.From != pm.From || !reflect.DeepEqual(sm.Words, pm.Words) {
				t.Fatalf("round %d inbox %d msg %d: serial %+v parallel %+v", round, d, i, sm, pm)
			}
		}
	}
}

// TestDeliverParallelMatchesSerial drives the same random rounds through a
// serial and a pool-backed Deliver on every accounting mode and requires
// bit-identical inboxes, stats, and errors — the contract that keeps the
// solve goldens byte-stable regardless of GOMAXPROCS or pool width.
//
// Two more buffers, one serial and one ranged, alternate charge-only and
// full rounds on the same traffic: a charge-only round must return nil
// inboxes with the full delivery's stats, and a full round after a
// charge-only one must match a fresh buffer's inboxes exactly.
func TestDeliverParallelMatchesSerial(t *testing.T) {
	oldCut := DeliverParallelMinWords
	DeliverParallelMinWords = 1
	defer func() { DeliverParallelMinWords = oldCut }()

	const n = 97
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = i % 7
	}
	for _, width := range []int{2, 4, 8} {
		pool := NewWorkPool(width)
		cases := []struct {
			name string
			opts DeliverOpts
		}{
			{"plain", DeliverOpts{}},
			{"pair-budget", DeliverOpts{PairWords: 1 << 20}},
			{"grouped-free", DeliverOpts{GroupOf: groupOf, Groups: 7, FreeIntraGroup: true}},
			{"grouped-charged", DeliverOpts{GroupOf: groupOf, Groups: 7}},
		}
		for _, tc := range cases {
			rng := rand.New(rand.NewSource(int64(width * 1009)))
			srb := AcquireRoundBuffer(n)
			prb := AcquireRoundBuffer(n)
			scrb := AcquireRoundBuffer(n) // serial, alternating charge-only
			pcrb := AcquireRoundBuffer(n) // ranged, alternating charge-only
			for round := 0; round < 8; round++ {
				fresh := freshRoundBuffer(n)
				stageRandomRound(rng, n, srb, prb, scrb, pcrb, fresh)
				sin, sst, serr := srb.Deliver(tc.opts)
				popts := tc.opts
				popts.Pool = pool
				pin, pst, perr := prb.Deliver(popts)
				compareDeliveries(t, round, sin, pin, sst, pst, serr, perr)

				chargeOnly := round%2 == 0
				scopts, pcopts := tc.opts, popts
				scopts.ChargeOnly, pcopts.ChargeOnly = chargeOnly, chargeOnly
				scin, scst, scerr := scrb.Deliver(scopts)
				pcin, pcst, pcerr := pcrb.Deliver(pcopts)
				if chargeOnly {
					if scin != nil || pcin != nil {
						t.Fatalf("%s width %d round %d: charge-only delivery returned inboxes", tc.name, width, round)
					}
					compareStats(t, round, sst, scst, serr, scerr)
					compareStats(t, round, sst, pcst, serr, pcerr)
					continue
				}
				fin, fst, ferr := fresh.Deliver(tc.opts)
				compareDeliveries(t, round, fin, scin, fst, scst, ferr, scerr)
				compareDeliveries(t, round, fin, pcin, fst, pcst, ferr, pcerr)
			}
			ReleaseRoundBuffer(srb)
			ReleaseRoundBuffer(prb)
			ReleaseRoundBuffer(scrb)
			ReleaseRoundBuffer(pcrb)
		}
		pool.Stop()
	}
}

// TestDeliverParallelErrors pins the parallel path's staging-order error
// contract: the reported RouteError (kind, pair, running word count) matches
// the serial pass exactly even when violations race across ranges.
func TestDeliverParallelErrors(t *testing.T) {
	oldCut := DeliverParallelMinWords
	DeliverParallelMinWords = 1
	defer func() { DeliverParallelMinWords = oldCut }()
	pool := NewWorkPool(4)
	defer pool.Stop()
	const n = 64

	stage := func(rb *RoundBuffer, oorFrom int) {
		// Every sender also sends one word to its successor, so the round
		// stages enough words for the charge-only ranged pass.
		for w := 0; w < n; w++ {
			rb.send[w].reset(w)
			rb.Sender(w).Put((w+1)%n, 1)
		}
		// Sender 3 overruns the pair budget on destination 40 (when one is
		// set), and sender oorFrom, if any, sends out of range. The
		// violation first in staging order is the one reported.
		if oorFrom >= 0 {
			rb.Sender(oorFrom).Put(n+7, 9)
		}
		rb.Sender(3).Put(40, 1, 2, 3)
		rb.Sender(3).Put(40, 4, 5)
		rb.Sender(7).Put(1, 8)
	}
	for _, tc := range []struct {
		name    string
		opts    DeliverOpts
		oorFrom int
	}{
		{"pair-violation", DeliverOpts{PairWords: 4}, -1},
		{"out-of-range", DeliverOpts{}, 5},
		{"pair-before-oor", DeliverOpts{PairWords: 4}, 5},
		{"oor-before-pair", DeliverOpts{PairWords: 4}, 2},
	} {
		srb := AcquireRoundBuffer(n)
		stage(srb, tc.oorFrom)
		_, _, serr := srb.Deliver(tc.opts)
		if serr == nil {
			t.Fatalf("%s: serial delivery accepted the round", tc.name)
		}
		ReleaseRoundBuffer(srb)
		// The ranged path, and both paths charge-only, must report the
		// identical violation.
		for _, v := range []struct {
			pool       *WorkPool
			chargeOnly bool
		}{{pool, false}, {nil, true}, {pool, true}} {
			rb := AcquireRoundBuffer(n)
			stage(rb, tc.oorFrom)
			opts := tc.opts
			opts.Pool, opts.ChargeOnly = v.pool, v.chargeOnly
			_, _, err := rb.Deliver(opts)
			if !reflect.DeepEqual(serr, err) {
				t.Fatalf("%s (ranged %v, charge-only %v): serial err %v, got %v",
					tc.name, v.pool != nil, v.chargeOnly, serr, err)
			}
			ReleaseRoundBuffer(rb)
		}
	}
}

// TestDeliverParallelWideLocators runs the parallel path with the packed
// locator boundary lowered, so per-range scatters exercise the wide
// (offset + sender slab) encoding as well.
func TestDeliverParallelWideLocators(t *testing.T) {
	oldCut, oldLim := DeliverParallelMinWords, locOffsetLimit
	DeliverParallelMinWords = 1
	locOffsetLimit = 8
	defer func() { DeliverParallelMinWords = oldCut; locOffsetLimit = oldLim }()
	pool := NewWorkPool(4)
	defer pool.Stop()

	const n = 33
	rng := rand.New(rand.NewSource(7))
	srb := AcquireRoundBuffer(n)
	prb := AcquireRoundBuffer(n)
	defer ReleaseRoundBuffer(srb)
	defer ReleaseRoundBuffer(prb)
	for round := 0; round < 4; round++ {
		stageRandomRound(rng, n, srb, prb)
		sin, sst, serr := srb.Deliver(DeliverOpts{})
		pin, pst, perr := prb.Deliver(DeliverOpts{Pool: pool})
		compareDeliveries(t, round, sin, pin, sst, pst, serr, perr)
	}
}
