package verify

import (
	"fmt"
	"testing"

	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// BenchmarkInstanceFingerprint times the canonical encoding and its
// fingerprint, graph.WriteInstanceWords folded chunk by chunk through
// hashing.Stream, on the registry powerlaw instances with list palettes
// that list-coloring benchmarks and serving misses fingerprint.
func BenchmarkInstanceFingerprint(b *testing.B) {
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		b.Fatal(err)
	}
	for _, logN := range []int{14, 16} {
		b.Run(fmt.Sprintf("powerlaw/n=2^%d", logN), func(b *testing.B) {
			inst, err := spec.Instance(1<<logN, 13)
			if err != nil {
				b.Fatal(err)
			}
			words := graph.InstanceWordCount(inst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				InstanceFingerprint(inst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*words), "ns/word")
		})
	}
}
