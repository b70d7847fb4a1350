package mpc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ccolor/internal/fabric"
)

const chargeOnlyN = 40

// chargeOnlyWeight packs chargeOnlyN nodes onto about six machines of
// space 2·chargeOnlyN = 80 words.
func chargeOnlyWeight(v int) int64 { return int64(v%7 + 8) }

// chargeOnlyClusters builds the same linear cluster twice: fresh from
// NewLinear, or recycled through ResetLinear after a round on another
// shape with a charge-only request left pending (which the reset drops).
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
		c.SkipNextInboxes(fabric.Skip{Inboxes: true})
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
		t.Fatalf("%s: charges differ:\n reading %v peak=%d space=%d\n charge-only %v peak=%d space=%d", what,
			la, la.PeakRoundWords(), a.PeakMachineSpace(), lb, lb.PeakRoundWords(), b.PeakMachineSpace())
	}
	if !reflect.DeepEqual(la.PhaseProfile(), lb.PhaseProfile()) {
		t.Fatalf("%s: phase profiles differ: %v vs %v", what, la.PhaseProfile(), lb.PhaseProfile())
	}
}

// TestChargeOnlyRoundMatchesReadingRound runs identical traffic through a
// cluster that reads its inboxes and one whose rounds are charge-only
// (fabric.SendFrames), on NewLinear and ResetLinear clusters at
// parallelism 1 and 4 with every round split into sender blocks, and
// requires the same ledger and peak machine space after every round.
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
				in, err := fabric.RoundFrames(read, stageMsgs(frames))
				if err != nil {
					t.Fatal(err)
				}
				if len(in) != chargeOnlyN {
					t.Fatalf("round %d: reading round returned %d inboxes", round, len(in))
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

// TestChargeOnlyRoundErrors: a charge-only round fails exactly as a reading
// round does — the same *SpaceError for send, recv and total space, the
// same out-of-range error — and a failed round still consumes the request.
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
		total  bool   // run with a total space budget
		kind   string // SpaceError kind; "" for out of range
	}{
		{"send", big(0, chargeOnlyN-1, 81), false, "send"},
		{"recv", fanIn, false, "recv"},
		{"total", big(0, chargeOnlyN-1, 20), true, "total"},
		{"out of range", big(3, chargeOnlyN+2, 1), false, ""},
	}
	for _, tc := range cases {
		for _, recycled := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				opts := []Option{WithParallelism(par)}
				if tc.total {
					// Room for the resident data plus 10 words of traffic.
					var resident int64
					for v := 0; v < chargeOnlyN; v++ {
						resident += chargeOnlyWeight(v)
					}
					opts = append(opts, WithTotalSpaceBudget(resident+10))
				}
				read, skip := chargeOnlyClusters(t, recycled, opts...)
				_, rerr := fabric.RoundFrames(read, stageMsgs(withRing(tc.frames)))
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
				in, err := skip.FrameRound(stageMsgs(big(1, chargeOnlyN-1, 1)))
				if err != nil || len(in) != chargeOnlyN || len(in[chargeOnlyN-1]) != 1 {
					t.Fatalf("%s: round after the failed charge-only round: %d inboxes, err %v", tc.name, len(in), err)
				}
				read.Release()
				skip.Release()
			}
		}
	}
}

// TestChargeOnlyRequestIsOneShot: SkipNextInboxes affects exactly the next
// round, through FrameRound or Round, and Reset drops a pending request.
func TestChargeOnlyRequestIsOneShot(t *testing.T) {
	c, err := New([]int{0, 0, 1, 1}, 2, 100, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put(3-w, uint64(w)) }
	reads := func(what string, want bool) {
		t.Helper()
		in, err := c.FrameRound(stage)
		if err != nil {
			t.Fatal(err)
		}
		if got := in != nil; got != want {
			t.Fatalf("%s: round returned inboxes = %v, want %v", what, got, want)
		}
		if want && (len(in[3]) != 1 || in[3][0].From != 0) {
			t.Fatalf("%s: inbox 3 = %+v", what, in[3])
		}
	}
	c.SkipNextInboxes(fabric.Skip{Inboxes: true})
	reads("requested round", false)
	reads("round after it", true)

	c.SkipNextInboxes(fabric.Skip{Inboxes: true})
	if in, err := c.Round(func(w int) []fabric.Msg { return nil }); err != nil || in != nil {
		t.Fatalf("Round did not consume the request: %d inboxes, err %v", len(in), err)
	}
	reads("round after Round", true)

	c.SkipNextInboxes(fabric.Skip{Inboxes: true})
	if err := c.Reset([]int{0, 0, 1, 1}, 2, 100); err != nil {
		t.Fatal(err)
	}
	reads("round after Reset", true)
}

// TestPlacingRequestIsOneShot: SkipNextInboxes with a Place makes exactly
// the next round a placing round, a failed round consumes the request —
// one Deliver rejects places nothing; one the cluster rejects after
// delivery for its space may have placed frames, and its destination is
// unspecified — and Reset drops a pending one.
func TestPlacingRequestIsOneShot(t *testing.T) {
	c, err := New([]int{0, 0, 1, 1}, 2, 100, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put(3-w, uint64(w+1)) }
	got := make([]uint64, 4)
	calls := 0
	place := func(to int, payload []uint64) {
		got[to] = payload[0]
		calls++
	}
	reads := func(what string) {
		t.Helper()
		before := calls
		in, err := c.FrameRound(stage)
		if err != nil || len(in) != 4 || len(in[3]) != 1 || in[3][0].From != 0 {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if calls != before {
			t.Fatalf("%s: reading round placed %d frames", what, calls-before)
		}
	}
	c.SkipNextInboxes(fabric.Skip{Place: place})
	if in, err := c.FrameRound(stage); err != nil || in != nil {
		t.Fatalf("placing round: %d inboxes, err %v", len(in), err)
	}
	if want := []uint64{4, 3, 2, 1}; !reflect.DeepEqual(got, want) || calls != 4 {
		t.Fatalf("placed %v in %d calls, want %v in 4", got, calls, want)
	}
	reads("round after it")

	c.SkipNextInboxes(fabric.Skip{Place: place})
	if _, err := c.FrameRound(func(w int, sb *fabric.SendBuf) { sb.Put(7, 1) }); err == nil {
		t.Fatal("out-of-range placing round accepted")
	}
	if calls != 4 {
		t.Fatalf("rejected placing round placed %d frames", calls-4)
	}
	reads("round after a rejected placing round")

	// 101 words from machine 0 to machine 1 break the 100-word space.
	c.SkipNextInboxes(fabric.Skip{Place: place})
	_, err = c.FrameRound(func(w int, sb *fabric.SendBuf) {
		if w == 0 {
			sb.Put(3, make([]uint64, 101)...)
		}
	})
	var se *SpaceError
	if !errors.As(err, &se) {
		t.Fatalf("over-space placing round: err %v", err)
	}
	reads("round after an over-space placing round")

	c.SkipNextInboxes(fabric.Skip{Place: place})
	if err := c.Reset([]int{0, 0, 1, 1}, 2, 100); err != nil {
		t.Fatal(err)
	}
	reads("round after Reset")
}
