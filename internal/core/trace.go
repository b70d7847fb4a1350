package core

import (
	"fmt"
	"strings"
)

// DepthStats aggregates telemetry for one recursion depth, the raw material
// for experiments E2–E5.
type DepthStats struct {
	Depth          int
	Calls          int     // Partition or collect calls that ran at this depth
	Partitions     int     // Partition calls
	Collected      int     // instances collected & colored locally
	MaxNodes       int     // max n_G over instances at this depth
	MaxDegree      int     // max instance degree Δ_i
	MaxEll         float64 // max ℓ_i
	MaxSize        int     // max n_G + 2m_G
	BadNodes       int     // bad nodes produced by Partitions at this depth
	BadBound       int64   // Σ of the Lemma 3.9 targets ⌊𝔫/ℓ²⌋ used here
	ExtraBad       int     // nodes demoted to G0 by the runtime p>d safety check
	BadBins        int     // must stay 0 (Lemma 3.9)
	G0Size         int     // total size of bad-node graphs (Cor. 3.10)
	SeedCandidates int     // candidate seeds up to each selected one (derand.Stats.Candidates)
	SeedBatches    int     // aggregation batches
}

// Trace is the full telemetry of one Solve run.
type Trace struct {
	InputN     int
	InputDelta int
	Waves      int
	PerDepth   []DepthStats
	// Audit records invariant-check outcomes (Cor. 3.3, Lemma 3.2).
	Audit AuditStats
	// LocalColoredNodes counts nodes colored by local (collected) solving;
	// equals InputN on success.
	LocalColoredNodes int
	// MaxCollectedSize is the largest instance ever gathered onto a single
	// machine, checked against CollectFactor·𝔫 + G0 slack (Cor. 3.10).
	MaxCollectedSize int
	// PeakPaletteWords is the maximum over waves of Σ_v palWords(v) — the
	// palette storage footprint. Materialized mode is Θ(𝔫Δ); the Theorem
	// 1.3 compact mode is O(𝔪 + 𝔫).
	PeakPaletteWords int64
}

// AuditStats counts runtime invariant checks. "Checked" counts node-level
// predicate evaluations; violations are recorded per predicate.
type AuditStats struct {
	Checked            int64
	EllBelowPalette    int64 // violations of (i) ℓ < p(v)
	DegreeAboveEll     int64 // violations of (ii) d(v) ≤ ℓ + ℓ^0.7
	PaletteNotAboveDeg int64 // violations of (iii) d(v) < p(v) — must be 0
}

// MaxRecursionDepth returns the deepest level that ran.
func (t *Trace) MaxRecursionDepth() int { return len(t.PerDepth) - 1 }

// TotalBadNodes sums bad nodes over all depths.
func (t *Trace) TotalBadNodes() int {
	s := 0
	for _, d := range t.PerDepth {
		s += d.BadNodes
	}
	return s
}

// TotalSeedCandidates sums candidate seeds evaluated over all depths.
func (t *Trace) TotalSeedCandidates() int {
	s := 0
	for _, d := range t.PerDepth {
		s += d.SeedCandidates
	}
	return s
}

// TotalPartitions sums Partition calls over all depths.
func (t *Trace) TotalPartitions() int {
	s := 0
	for _, d := range t.PerDepth {
		s += d.Partitions
	}
	return s
}

func (t *Trace) depth(d int) *DepthStats {
	for len(t.PerDepth) <= d {
		t.PerDepth = append(t.PerDepth, DepthStats{Depth: len(t.PerDepth)})
	}
	return &t.PerDepth[d]
}

// String renders a per-depth table.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d Δ=%d waves=%d maxDepth=%d\n",
		t.InputN, t.InputDelta, t.Waves, t.MaxRecursionDepth())
	fmt.Fprintf(&b, "%5s %6s %6s %8s %8s %10s %8s %8s %6s\n",
		"depth", "calls", "part", "maxN", "maxΔ", "maxℓ", "maxSize", "bad", "xbad")
	for _, d := range t.PerDepth {
		fmt.Fprintf(&b, "%5d %6d %6d %8d %8d %10.1f %8d %8d %6d\n",
			d.Depth, d.Calls, d.Partitions, d.MaxNodes, d.MaxDegree, d.MaxEll, d.MaxSize, d.BadNodes, d.ExtraBad)
	}
	return b.String()
}
