package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkDeliver times RoundBuffer.Deliver alone on staged rounds of
// three shapes. Deliver only reads the arenas, so each round is staged once
// and delivered b.N times, as one block (no pool) and split over a pool of
// GOMAXPROCS workers whatever the round's size.
//
//   - announce: every node of an n-node clique sends a 1-word frame to n/4
//     random distinct nodes, the dense solve's announce round, charge-only.
//     n=2048 is about a million frames. n=256 (32k staged words) and n=64
//     (2k words) bracket DeliverParallelMinWords: a round below it runs as
//     one block because one block wins there.
//   - aggregate: 2¹⁶ senders each send a 1-word frame to each of 24 owners,
//     the first round of AggregateVec in a sparse solve's seed selection,
//     combined.
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
		rb := AcquireRoundBuffer(n)
		for w := 0; w < n; w++ {
			sb := rb.Sender(w)
			for _, to := range rng.Perm(n)[:fanout] {
				sb.Put(to, uint64(w))
			}
		}
		b.Run(fmt.Sprintf("announce%d/charge-only", n), func(b *testing.B) {
			run(b, rb, n*fanout, DeliverOpts{PairWords: 4})
		})
		ReleaseRoundBuffer(rb)
	}

	const senders, owners = 1 << 16, 24
	rb := AcquireRoundBuffer(senders)
	defer ReleaseRoundBuffer(rb)
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

	spread := AcquireRoundBuffer(senders)
	defer ReleaseRoundBuffer(spread)
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
