package mpc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
)

const chargeOnlyN = 40

// chargeOnlyWeight packs chargeOnlyN nodes onto about six machines of
// space 2·chargeOnlyN = 80 words.
func chargeOnlyWeight(v int) int64 { return int64(v%7 + 8) }

// chargeOnlyClusters builds the same linear cluster twice: fresh from
// NewLinear, or recycled through ResetLinear after a round on another
// shape with a placing request left pending (which the reset drops).
func chargeOnlyClusters(t *testing.T, recycled bool, opts ...Option) (read, skip *Cluster) {
	t.Helper()
	build := func() *Cluster {
		if !recycled {
			c, err := NewLinear(chargeOnlyN, chargeOnlyWeight, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c, err := NewLinear(7, func(int) int64 { return 3 }, 3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.FrameRound(func(w int, sb *fabric.SendBuf) { sb.Put(6-w, uint64(w)) }); err != nil {
			t.Fatal(err)
		}
		c.SetSink(fabric.Sink{Place: func(int, int, []uint64) { t.Error("reset kept a pending placing request") }})
		if err := c.ResetLinear(chargeOnlyN, chargeOnlyWeight, 2); err != nil {
			t.Fatal(err)
		}
		return c
	}
	return build(), build()
}

// withRing prepends a 1-word frame from every worker to its successor, so
// every worker stages something and a round splits into as many sender
// blocks as the pool has workers.
func withRing(frames [][]fabric.Msg) [][]fabric.Msg {
	out := make([][]fabric.Msg, len(frames))
	for w := range frames {
		out[w] = append([]fabric.Msg{{To: (w + 1) % len(frames), Words: []uint64{1}}}, frames[w]...)
	}
	return out
}

func stageMsgs(frames [][]fabric.Msg) func(w int, sb *fabric.SendBuf) {
	return func(w int, sb *fabric.SendBuf) {
		for _, m := range frames[w] {
			sb.Put(m.To, m.Words...)
		}
	}
}

// sameCharges requires two clusters to agree on every charge a round makes.
func sameCharges(t *testing.T, what string, a, b *Cluster) {
	t.Helper()
	la, lb := a.Ledger(), b.Ledger()
	if la.Rounds() != lb.Rounds() || la.WordsMoved() != lb.WordsMoved() ||
		la.MaxSendLoad() != lb.MaxSendLoad() || la.MaxRecvLoad() != lb.MaxRecvLoad() ||
		la.PeakRoundWords() != lb.PeakRoundWords() || a.PeakMachineSpace() != b.PeakMachineSpace() {
		t.Fatalf("%s: charges differ:\n read back %v peak=%d space=%d\n charge-only %v peak=%d space=%d", what,
			la, la.PeakRoundWords(), a.PeakMachineSpace(), lb, lb.PeakRoundWords(), b.PeakMachineSpace())
	}
	if !reflect.DeepEqual(la.PhaseProfile(), lb.PhaseProfile()) {
		t.Fatalf("%s: phase profiles differ: %v vs %v", what, la.PhaseProfile(), lb.PhaseProfile())
	}
}

// TestChargeOnlyRoundMatchesReadingRound runs identical traffic through a
// cluster whose rounds are read back as inboxes (fabrictest.Inboxes) and
// one whose rounds are charge-only (fabric.SendFrames), on NewLinear and
// ResetLinear clusters at parallelism 1 and 4 with every round split into
// sender blocks, and requires the same ledger and peak machine space after
// every round.
func TestChargeOnlyRoundMatchesReadingRound(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	for _, recycled := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			read, skip := chargeOnlyClusters(t, recycled, WithParallelism(par))
			if read.Machines() < 4 {
				t.Fatalf("layout packed %d machines, want several", read.Machines())
			}
			sameCharges(t, "after set-up", read, skip)
			rng := rand.New(rand.NewSource(int64(par)))
			for round, phase := range []string{"a", "b", "", "a", "c"} {
				read.Ledger().SetPhase(phase)
				skip.Ledger().SetPhase(phase)
				frames := make([][]fabric.Msg, chargeOnlyN)
				for w := range frames {
					for f := rng.Intn(3); f > 0; f-- {
						frames[w] = append(frames[w], fabric.Msg{To: rng.Intn(chargeOnlyN), Words: make([]uint64, 1+rng.Intn(2))})
					}
				}
				in, err := fabrictest.Inboxes(read, stageMsgs(frames))
				if err != nil {
					t.Fatal(err)
				}
				if len(in) != chargeOnlyN {
					t.Fatalf("round %d: read back %d inboxes", round, len(in))
				}
				if err := fabric.SendFrames(skip, stageMsgs(frames)); err != nil {
					t.Fatal(err)
				}
				sameCharges(t, "round", read, skip)
			}
			if read.Ledger().WordsMoved() == 0 {
				t.Fatal("no cross-machine traffic was charged")
			}
			read.Release()
			skip.Release()
		}
	}
}

// TestChargeOnlyRoundErrors: a charge-only round fails exactly as a round
// read back as inboxes does — the same *SpaceError for send and recv
// space, the same out-of-range error — and leaves the cluster ready for
// the next round.
func TestChargeOnlyRoundErrors(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	big := func(from, to, words int) [][]fabric.Msg {
		frames := make([][]fabric.Msg, chargeOnlyN)
		frames[from] = []fabric.Msg{{To: to, Words: make([]uint64, words)}}
		return frames
	}
	fanIn := make([][]fabric.Msg, chargeOnlyN)
	for w := 10; w < chargeOnlyN; w += 3 {
		fanIn[w] = []fabric.Msg{{To: 0, Words: make([]uint64, 9)}}
	}
	cases := []struct {
		name   string
		frames [][]fabric.Msg
		kind   string // SpaceError kind; "" for out of range
	}{
		{"send", big(0, chargeOnlyN-1, 81), "send"},
		{"recv", fanIn, "recv"},
		{"out of range", big(3, chargeOnlyN+2, 1), ""},
	}
	for _, tc := range cases {
		for _, recycled := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				read, skip := chargeOnlyClusters(t, recycled, WithParallelism(par))
				_, rerr := fabrictest.Inboxes(read, stageMsgs(withRing(tc.frames)))
				serr := fabric.SendFrames(skip, stageMsgs(withRing(tc.frames)))
				if rerr == nil || serr == nil || rerr.Error() != serr.Error() {
					t.Fatalf("%s: reading err %v, charge-only err %v", tc.name, rerr, serr)
				}
				var rse, sse *SpaceError
				if errors.As(rerr, &rse) != (tc.kind != "") || errors.As(serr, &sse) != (tc.kind != "") ||
					!reflect.DeepEqual(rse, sse) || (sse != nil && sse.Kind != tc.kind) {
					t.Fatalf("%s: reading err %#v, charge-only err %#v", tc.name, rse, sse)
				}
				sameCharges(t, tc.name, read, skip)
				in, err := fabrictest.Inboxes(skip, stageMsgs(big(1, chargeOnlyN-1, 1)))
				if err != nil || len(in) != chargeOnlyN || len(in[chargeOnlyN-1]) != 1 {
					t.Fatalf("%s: round after the failed charge-only round: %d inboxes, err %v", tc.name, len(in), err)
				}
				read.Release()
				skip.Release()
			}
		}
	}
}

// TestChargeOnlyRequestIsOneShot: the zero Sink is the charge-only
// request. Every round returns nil inboxes and is charged; a charge-only
// request replaces a pending placing one, so the next round places
// nothing; and Reset drops a pending request.
func TestChargeOnlyRequestIsOneShot(t *testing.T) {
	c, err := New([]int{0, 0, 1, 1}, 2, 100, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put(3-w, uint64(w)) }
	calls := 0
	place := func(int, int, []uint64) { calls++ }
	chargeOnly := func(what string) {
		t.Helper()
		rounds := c.Ledger().Rounds()
		in, err := c.FrameRound(stage)
		if err != nil || in != nil {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if calls != 0 || c.Ledger().Rounds() != rounds+1 {
			t.Fatalf("%s: %d frames placed, %d rounds charged", what, calls, c.Ledger().Rounds()-rounds)
		}
	}
	chargeOnly("round with no request")
	c.SetSink(fabric.Sink{})
	chargeOnly("requested round")

	c.SetSink(fabric.Sink{Place: place})
	c.SetSink(fabric.Sink{})
	chargeOnly("round after a replaced placing request")

	c.SetSink(fabric.Sink{Place: place})
	if err := c.Reset([]int{0, 0, 1, 1}, 2, 100); err != nil {
		t.Fatal(err)
	}
	chargeOnly("round after Reset")
	in, err := fabrictest.Inboxes(c, stage)
	if err != nil || len(in[3]) != 1 || in[3][0].From != 0 {
		t.Fatalf("read back after the charge-only rounds: err %v, inbox 3 = %+v", err, in[3])
	}
}

// TestPlacingRequestIsOneShot: SetSink with a Place makes exactly the next
// round a placing round, a failed round consumes the request — one Deliver
// rejects places nothing; one the cluster rejects after delivery for its
// space may have placed frames, and its destination is unspecified — and
// Reset drops a pending one.
func TestPlacingRequestIsOneShot(t *testing.T) {
	c, err := New([]int{0, 0, 1, 1}, 2, 100, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put(3-w, uint64(w+1)) }
	got := make([]uint64, 4)
	from := make([]int, 4)
	calls := 0
	place := func(f, to int, payload []uint64) {
		got[to], from[to] = payload[0], f
		calls++
	}
	plain := func(what string) {
		t.Helper()
		before := calls
		in, err := c.FrameRound(stage)
		if err != nil || in != nil {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if calls != before {
			t.Fatalf("%s: plain round placed %d frames", what, calls-before)
		}
	}
	c.SetSink(fabric.Sink{Place: place})
	if in, err := c.FrameRound(stage); err != nil || in != nil {
		t.Fatalf("placing round: %d inboxes, err %v", len(in), err)
	}
	if want, wantFrom := []uint64{4, 3, 2, 1}, []int{3, 2, 1, 0}; !reflect.DeepEqual(got, want) ||
		!reflect.DeepEqual(from, wantFrom) || calls != 4 {
		t.Fatalf("placed %v from %v in %d calls, want %v from %v in 4", got, from, calls, want, wantFrom)
	}
	plain("round after it")

	c.SetSink(fabric.Sink{Place: place})
	if _, err := c.FrameRound(func(w int, sb *fabric.SendBuf) { sb.Put(7, 1) }); err == nil {
		t.Fatal("out-of-range placing round accepted")
	}
	if calls != 4 {
		t.Fatalf("rejected placing round placed %d frames", calls-4)
	}
	plain("round after a rejected placing round")

	// 101 words from machine 0 to machine 1 break the 100-word space.
	c.SetSink(fabric.Sink{Place: place})
	_, err = c.FrameRound(func(w int, sb *fabric.SendBuf) {
		if w == 0 {
			sb.Put(3, make([]uint64, 101)...)
		}
	})
	var se *SpaceError
	if !errors.As(err, &se) {
		t.Fatalf("over-space placing round: err %v", err)
	}
	plain("round after an over-space placing round")

	c.SetSink(fabric.Sink{Place: place})
	if err := c.Reset([]int{0, 0, 1, 1}, 2, 100); err != nil {
		t.Fatal(err)
	}
	plain("round after Reset")
}
