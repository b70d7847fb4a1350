package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkDeliver times RoundBuffer.Deliver alone on one staged round
// shaped like the dense solve's announce: every node of a 2048-node clique
// sends a 1-word frame to 512 random distinct nodes (about a million frames
// under the per-pair budget). Deliver only reads the arenas, so the round is
// staged once and delivered b.N times. Sub-benchmarks cover full and
// charge-only delivery, serial and ranged over a pool of GOMAXPROCS workers.
func BenchmarkDeliver(b *testing.B) {
	const n, fanout = 2048, 512
	rng := rand.New(rand.NewSource(1))
	rb := AcquireRoundBuffer(n)
	defer ReleaseRoundBuffer(rb)
	for w := 0; w < n; w++ {
		sb := rb.Sender(w)
		for _, to := range rng.Perm(n)[:fanout] {
			sb.Put(to, uint64(w))
		}
	}
	pool := NewWorkPool(runtime.GOMAXPROCS(0))
	defer pool.Stop()
	for _, ranged := range []bool{false, true} {
		for _, chargeOnly := range []bool{false, true} {
			opts := DeliverOpts{PairWords: 4, ChargeOnly: chargeOnly}
			if ranged {
				opts.Pool = pool
			}
			b.Run(fmt.Sprintf("ranged=%v/charge-only=%v", ranged, chargeOnly), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := rb.Deliver(opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*fanout), "ns/frame")
			})
		}
	}
}
