package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkDeliver times RoundBuffer.Deliver alone on staged rounds of
// four shapes. Deliver only reads the arenas, so each round is staged once
// and delivered b.N times, as one block (no pool) and split over a pool of
// GOMAXPROCS workers whatever the round's size. Every case reports
// ns/frame, a fan frame counting one frame per receiver.
//
//   - announce: every node of an n-node clique sends a 1-word frame to n/4
//     random distinct nodes, the dense solve's announce round, charge-only.
//     n=2048 is about a million frames; announce2048/fan stages the same
//     receivers as one fan frame per sender, as the solve does. n=256 (32k
//     staged words) and n=64 (2k words) bracket DeliverParallelMinWords: a
//     round below it runs as one block because one block wins there.
//   - aggregate: 2¹⁶ senders each send a 1-word frame to each of 24 owners,
//     the first round of AggregateVec in a sparse solve's seed selection,
//     combined.
//   - broadcast: 24 owners each send one word to the other 2¹⁶−1 workers,
//     the second round of that AggregateVec, charge-only; staged as single
//     frames and as one fan frame per owner.
//   - spread: every odd one of 2¹⁶ senders ships 5–17 three-word (target,
//     rank, word) frames to consecutive intermediates, the spread round of
//     a sparse solve's collect gather, placed into a slab by rank.
func BenchmarkDeliver(b *testing.B) {
	pool := NewWorkPool(runtime.GOMAXPROCS(0))
	defer pool.Stop()
	run := func(b *testing.B, rb *RoundBuffer, frames int, opts DeliverOpts) {
		for _, split := range []bool{false, true} {
			opts := opts
			name := "blocks=1"
			if split {
				opts.Pool = pool
				name = fmt.Sprintf("pool=%d", pool.Workers())
			}
			b.Run(name, func(b *testing.B) {
				if split {
					defer splitEveryRound()()
				}
				for i := 0; i < b.N; i++ {
					if opts.Sink.Sum != nil {
						clear(opts.Sink.Sum)
					}
					if _, err := rb.Deliver(opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frames), "ns/frame")
			})
		}
	}
	for _, n := range []int{2048, 256, 64} {
		fanout := n / 4
		rng := rand.New(rand.NewSource(1))
		rb := new(RoundBuffer)
		rb.Reset(n)
		dests := make([][]int32, n)
		for w := 0; w < n; w++ {
			sb := rb.Sender(w)
			for _, to := range rng.Perm(n)[:fanout] {
				sb.Put(to, uint64(w))
				dests[w] = append(dests[w], int32(to))
			}
		}
		b.Run(fmt.Sprintf("announce%d/charge-only", n), func(b *testing.B) {
			run(b, rb, n*fanout, DeliverOpts{PairWords: 4})
		})
		if n == 2048 {
			fan := new(RoundBuffer)
			fan.Reset(n)
			for w, to := range dests {
				fan.Sender(w).Fan(to, uint64(w))
			}
			b.Run(fmt.Sprintf("announce%d/fan", n), func(b *testing.B) {
				run(b, fan, n*fanout, DeliverOpts{PairWords: 4})
			})
		}
	}

	const senders, owners = 1 << 16, 24
	rb := new(RoundBuffer)
	rb.Reset(senders)
	for w := 0; w < senders; w++ {
		sb := rb.Sender(w)
		sb.Reserve(owners, owners)
		for o := 0; o < owners; o++ {
			if o != w {
				sb.Put(o, uint64(w^o))
			}
		}
	}
	b.Run("aggregate64k/combine", func(b *testing.B) {
		run(b, rb, senders*owners, DeliverOpts{PairWords: 4, Sink: Sink{Sum: make([]int64, owners)}})
	})

	bc, bcFan := new(RoundBuffer), new(RoundBuffer)
	bc.Reset(senders)
	bcFan.Reset(senders)
	for o := 0; o < owners; o++ {
		sb := bc.Sender(o)
		sb.Reserve(senders-1, senders-1)
		for t := 0; t < senders; t++ {
			if t != o {
				sb.Put(t, uint64(o))
			}
		}
		fanOthers(bcFan.Sender(o), senders, o, 1)[0] = uint64(o)
	}
	b.Run("broadcast65536/charge-only", func(b *testing.B) {
		run(b, bc, owners*(senders-1), DeliverOpts{PairWords: 4})
	})
	b.Run("broadcast65536/fan", func(b *testing.B) {
		run(b, bcFan, owners*(senders-1), DeliverOpts{PairWords: 4})
	})

	spread := new(RoundBuffer)
	spread.Reset(senders)
	ranks, frames := 0, 0
	for w := 1; w < senders; w += 2 {
		sb := spread.Sender(w)
		for k := 0; k < 5+w%13; k, ranks = k+1, ranks+1 {
			if inter := ranks % senders; inter != w {
				sb.Put(inter, 12345, uint64(ranks), uint64(w))
				frames++
			}
		}
	}
	hold := make([]uint64, ranks)
	b.Run("spread64k/place", func(b *testing.B) {
		place := func(_, _ int, p []uint64) { hold[p[1]] = p[2] }
		run(b, spread, frames, DeliverOpts{PairWords: 4, Sink: Sink{Place: place}})
	})
}
