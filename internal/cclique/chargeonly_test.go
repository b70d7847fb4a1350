package cclique

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
)

// randomTraffic draws one round's frames per sender: up to five frames to
// random nodes with payloads of at most two words, so repeated pairs stay
// within the default per-pair budget.
func randomTraffic(rng *rand.Rand, n int) [][]fabric.Msg {
	out := make([][]fabric.Msg, n)
	for w := range out {
		for f := rng.Intn(6); f > 0; f-- {
			to := rng.Intn(n)
			if to == w {
				continue
			}
			words := make([]uint64, 1+rng.Intn(2))
			for i := range words {
				words[i] = uint64(rng.Intn(9))
			}
			out[w] = append(out[w], fabric.Msg{To: to, Words: words})
		}
	}
	return out
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

// sameLedger requires two ledgers to agree on every charge a round makes.
func sameLedger(t *testing.T, what string, a, b *fabric.Ledger) {
	t.Helper()
	if a.Rounds() != b.Rounds() || a.WordsMoved() != b.WordsMoved() ||
		a.MaxSendLoad() != b.MaxSendLoad() || a.MaxRecvLoad() != b.MaxRecvLoad() ||
		a.PeakRoundWords() != b.PeakRoundWords() {
		t.Fatalf("%s: ledgers differ:\n read back %v peak=%d\n not read %v peak=%d",
			what, a, a.PeakRoundWords(), b, b.PeakRoundWords())
	}
	if !reflect.DeepEqual(a.PhaseProfile(), b.PhaseProfile()) {
		t.Fatalf("%s: phase profiles differ: %v vs %v", what, a.PhaseProfile(), b.PhaseProfile())
	}
}

// TestChargeOnlyRoundMatchesReadingRound runs identical traffic through a
// network whose rounds are read back as inboxes (fabrictest.Inboxes) and
// one whose rounds are charge-only (fabric.SendFrames), at parallelism 1
// and 4 with every round split into sender blocks, and requires the two
// ledgers to agree after every round.
func TestChargeOnlyRoundMatchesReadingRound(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	const n = 41
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(par)))
		read := New(n, WithParallelism(par))
		skip := New(n, WithParallelism(par))
		for round, phase := range []string{"a", "b", "a", "", "c", "b"} {
			read.Ledger().SetPhase(phase)
			skip.Ledger().SetPhase(phase)
			stage := stageMsgs(randomTraffic(rng, n))
			in, err := fabrictest.Inboxes(read, stage)
			if err != nil {
				t.Fatal(err)
			}
			if len(in) != n {
				t.Fatalf("parallelism %d round %d: read back %d inboxes", par, round, len(in))
			}
			if err := fabric.SendFrames(skip, stage); err != nil {
				t.Fatal(err)
			}
			sameLedger(t, "round", read.Ledger(), skip.Ledger())
		}
		read.Release()
		skip.Release()
	}
}

// TestChargeOnlyRoundErrors: a charge-only round rejects exactly what a
// round read back as inboxes rejects, with the same typed error, charges
// nothing for it, and leaves the network ready for the next round.
func TestChargeOnlyRoundErrors(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	const n = 9
	cases := []struct {
		name      string
		frames    [][]fabric.Msg
		bandwidth bool
	}{
		{"one frame over budget", [][]fabric.Msg{3: {{To: 5, Words: []uint64{1, 2, 3}}}}, true},
		{"frames sharing a pair", [][]fabric.Msg{2: {{To: 1, Words: []uint64{1}}, {To: 7, Words: []uint64{4}}, {To: 1, Words: []uint64{2, 3}}}}, true},
		{"out of range", [][]fabric.Msg{4: {{To: 2, Words: []uint64{1}}}, 6: {{To: n + 3, Words: []uint64{1}}}}, false},
	}
	for _, tc := range cases {
		frames := make([][]fabric.Msg, n)
		copy(frames, tc.frames)
		for _, par := range []int{1, 4} {
			read := New(n, WithMsgWords(2), WithParallelism(par))
			skip := New(n, WithMsgWords(2), WithParallelism(par))
			_, rerr := fabrictest.Inboxes(read, stageMsgs(withRing(frames)))
			serr := fabric.SendFrames(skip, stageMsgs(withRing(frames)))
			if rerr == nil || serr == nil {
				t.Fatalf("%s: reading err %v, charge-only err %v", tc.name, rerr, serr)
			}
			var rbe, sbe *BandwidthError
			if errors.As(rerr, &rbe) != tc.bandwidth || errors.As(serr, &sbe) != tc.bandwidth ||
				!reflect.DeepEqual(rbe, sbe) || rerr.Error() != serr.Error() {
				t.Fatalf("%s (parallelism %d): reading err %v, charge-only err %v", tc.name, par, rerr, serr)
			}
			sameLedger(t, tc.name, read.Ledger(), skip.Ledger())
			if skip.Ledger().Rounds() != 0 {
				t.Fatalf("%s: failed round was charged", tc.name)
			}
			in, err := fabrictest.Inboxes(skip, stageMsgs([][]fabric.Msg{0: {{To: 1, Words: []uint64{7}}}, n - 1: nil}))
			if err != nil || len(in) != n || len(in[1]) != 1 {
				t.Fatalf("%s: round after the failed charge-only round: %d inboxes, err %v", tc.name, len(in), err)
			}
			read.Release()
			skip.Release()
		}
	}
}

// TestChargeOnlyRequestIsOneShot: the zero Sink is the charge-only
// request. Every round returns nil inboxes and is charged; a charge-only
// request replaces a pending placing one, so the next round places
// nothing; and Reset drops a pending request.
func TestChargeOnlyRequestIsOneShot(t *testing.T) {
	const n = 4
	nw := New(n, WithParallelism(1))
	defer nw.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put((w+1)%n, uint64(w)) }
	calls := 0
	place := func(int, int, []uint64) { calls++ }
	chargeOnly := func(what string) {
		t.Helper()
		rounds := nw.Ledger().Rounds()
		in, err := nw.FrameRound(stage)
		if err != nil || in != nil {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if calls != 0 || nw.Ledger().Rounds() != rounds+1 {
			t.Fatalf("%s: %d frames placed, %d rounds charged", what, calls, nw.Ledger().Rounds()-rounds)
		}
	}
	chargeOnly("round with no request")
	nw.SetSink(fabric.Sink{})
	chargeOnly("requested round")

	nw.SetSink(fabric.Sink{Place: place})
	nw.SetSink(fabric.Sink{})
	chargeOnly("round after a replaced placing request")

	nw.SetSink(fabric.Sink{Place: place})
	nw.Reset(n)
	chargeOnly("round after Reset")
	if nw.Ledger().Rounds() != 1 {
		t.Fatalf("rounds after reset = %d, want 1", nw.Ledger().Rounds())
	}
	in, err := fabrictest.Inboxes(nw, stage)
	if err != nil || len(in[1]) != 1 || in[1][0].From != 0 || in[1][0].Words[0] != 0 {
		t.Fatalf("read back after the charge-only rounds: err %v, inbox 1 = %+v", err, in[1])
	}
}

// TestCombiningRoundMatchesReadingRound runs identical traffic through a
// network whose rounds are read back as inboxes (fabrictest.Inboxes) and
// one whose rounds are combining rounds (fabric.SumFrames), at parallelism
// 1 and 4 with every round split into sender blocks, and requires the sums
// to equal the inbox sums and the two ledgers to agree after every round.
func TestCombiningRoundMatchesReadingRound(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	const n = 41
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(par)))
		read := New(n, WithParallelism(par))
		comb := New(n, WithParallelism(par))
		for round := 0; round < 6; round++ {
			stage := stageMsgs(randomTraffic(rng, n))
			in, err := fabrictest.Inboxes(read, stage)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int64, 2*n) // payloads are at most two words
			for d, msgs := range in {
				for _, m := range msgs {
					for s, x := range m.Words {
						want[d+s*n] += int64(x)
					}
				}
			}
			sum := make([]int64, 2*n)
			if err := fabric.SumFrames(comb, sum, stage); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sum, want) {
				t.Fatalf("parallelism %d round %d: sum %v, inbox sums %v", par, round, sum, want)
			}
			sameLedger(t, "round", read.Ledger(), comb.Ledger())
		}
		read.Release()
		comb.Release()
	}
}

// TestCombiningRequestIsOneShot: SetSink with a sum makes exactly the
// next round a combining round, a failed round consumes the request too,
// and Reset drops a pending one.
func TestCombiningRequestIsOneShot(t *testing.T) {
	const n = 4
	nw := New(n, WithParallelism(1))
	defer nw.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put((w+1)%n, uint64(w+1)) }
	sum := make([]int64, n)
	plain := func(what string) {
		t.Helper()
		in, err := nw.FrameRound(stage)
		if err != nil || in != nil {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if want := []int64{4, 1, 2, 3}; !reflect.DeepEqual(sum, want) {
			t.Fatalf("%s: sum %v, want %v", what, sum, want)
		}
	}
	nw.SetSink(fabric.Sink{Sum: sum})
	if in, err := nw.FrameRound(stage); err != nil || in != nil {
		t.Fatalf("combining round: %d inboxes, err %v", len(in), err)
	}
	plain("round after it")

	nw.SetSink(fabric.Sink{Sum: sum})
	_, err := nw.FrameRound(func(w int, sb *fabric.SendBuf) { sb.Put(n+1, 1) })
	if err == nil {
		t.Fatal("out-of-range combining round accepted")
	}
	plain("round after a failed combining round")

	short := make([]int64, 2) // frames to nodes 2 and 3 land past it
	nw.SetSink(fabric.Sink{Sum: short})
	_, err = nw.FrameRound(stage)
	var se *fabric.SumError
	if !errors.As(err, &se) || se.From != 1 || se.To != 2 || !reflect.DeepEqual(short, []int64{0, 0}) {
		t.Fatalf("overflowing combining round: err %v, sum %v", err, short)
	}
	plain("round after an overflowing combining round")

	nw.SetSink(fabric.Sink{Sum: sum})
	nw.Reset(n)
	plain("round after Reset")
	if nw.Ledger().Rounds() != 1 {
		t.Fatalf("rounds after reset = %d, want 1", nw.Ledger().Rounds())
	}
}

// TestPlacingRequestIsOneShot: SetSink with a Place makes exactly the next
// round a placing round, a failed round consumes the request and places
// nothing, and Reset drops a pending one.
func TestPlacingRequestIsOneShot(t *testing.T) {
	const n = 4
	nw := New(n, WithParallelism(1))
	defer nw.Release()
	stage := func(w int, sb *fabric.SendBuf) { sb.Put((w+1)%n, uint64(w+1)) }
	got := make([]uint64, n)
	from := make([]int, n)
	calls := 0
	place := func(f, to int, payload []uint64) {
		got[to], from[to] = payload[0], f
		calls++
	}
	plain := func(what string) {
		t.Helper()
		in, err := nw.FrameRound(stage)
		if err != nil || in != nil {
			t.Fatalf("%s: %d inboxes, err %v", what, len(in), err)
		}
		if calls != n {
			t.Fatalf("%s: %d frames placed in all, want %d", what, calls, n)
		}
	}
	nw.SetSink(fabric.Sink{Place: place})
	if in, err := nw.FrameRound(stage); err != nil || in != nil {
		t.Fatalf("placing round: %d inboxes, err %v", len(in), err)
	}
	if want, wantFrom := []uint64{4, 1, 2, 3}, []int{3, 0, 1, 2}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(from, wantFrom) {
		t.Fatalf("placed %v from %v, want %v from %v", got, from, want, wantFrom)
	}
	plain("round after it")

	nw.SetSink(fabric.Sink{Place: place})
	_, err := nw.FrameRound(func(w int, sb *fabric.SendBuf) {
		stage(w, sb)
		if w == 2 {
			sb.Put(n+1, 1)
		}
	})
	if err == nil {
		t.Fatal("out-of-range placing round accepted")
	}
	plain("round after a failed placing round")

	nw.SetSink(fabric.Sink{Place: place})
	nw.Reset(n)
	plain("round after Reset")
	if nw.Ledger().Rounds() != 1 {
		t.Fatalf("rounds after reset = %d, want 1", nw.Ledger().Rounds())
	}
}
