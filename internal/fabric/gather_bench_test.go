package fabric_test

import (
	"fmt"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
)

// BenchmarkGatherMany times whole warm gathers on a congested clique, from
// the payload callbacks to the result, on one retained scratch:
//
//   - targets=T at n=1024: sender w ships T words to target w mod T, so
//     every target receives n words and every intermediate relays one
//     record to each of the T targets (16, 128 or 512 per intermediate);
//   - collect64k: every odd one of 2¹⁶ nodes ships 5–17 words to one
//     collector, about 360k words in all — the shape of a sparse solve's
//     collect gather (one target, half the nodes, 11 words a node).
func BenchmarkGatherMany(b *testing.B) {
	run := func(b *testing.B, n int, target func(w int) int, size func(w int) int) {
		blocks := make([][]uint64, n)
		words := 0
		for w := range n {
			if target(w) >= 0 {
				blocks[w] = make([]uint64, size(w))
				for i := range blocks[w] {
					blocks[w][i] = uint64(w<<20 | i)
				}
				words += len(blocks[w])
			}
		}
		payload := func(w int) (int, []uint64) { return target(w), blocks[w] }
		nw := cclique.New(n)
		defer nw.Release()
		var ws fabric.VecScratch
		for b.Loop() {
			if _, err := ws.GatherMany(nw, nw.MsgWords(), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/word")
	}
	for _, targets := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("n=1024/targets=%d", targets), func(b *testing.B) {
			run(b, 1024, func(w int) int { return w % targets }, func(int) int { return targets })
		})
	}
	b.Run("collect64k", func(b *testing.B) {
		run(b, 1<<16, func(w int) int {
			if w%2 == 1 {
				return 12345
			}
			return -1
		}, func(w int) int { return 5 + w%13 })
	})
}
