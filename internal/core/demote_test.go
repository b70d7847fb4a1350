package core

import (
	"fmt"
	"slices"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

// TestDemotionNetPinned drives the p′(v) > d′(v) safety net, which random
// clique instances under the seed search never reach: one seed taken
// unconditionally (AcceptFirstSeed) with forced wide bins on dense GNP
// graphs leaves color bins whose restricted palettes do not exceed their
// in-bin degrees, so demoteForRestriction moves nodes to G0. Each case runs
// on the clique with packed and compact palettes and on linear-space MPC
// (space factor 64). The coloring fingerprint, the per-depth ExtraBad and
// BadNodes, and the clique's and MPC's rounds and words must read as
// pinned; the pins were computed with the map-based demotion the stamped
// one replaced.
func TestDemotionNetPinned(t *testing.T) {
	cases := []struct {
		n, bins            int
		fp                 uint64 // verify.ColoringFingerprint
		extraBad, badNodes []int  // per depth
		clique, mpc        [2]int64
	}{
		{256, 8, 0x1c86904d3993fe4e, []int{0, 3}, []int{93, 0}, [2]int64{43, 125607}, [2]int64{35, 56945}},
		{1024, 8, 0x1a837c302e468655, []int{0, 21, 14}, []int{259, 232, 0}, [2]int64{119, 1908793}, [2]int64{104, 906533}},
		{256, 16, 0x3d26557caf01f8e, []int{0, 30}, []int{121, 0}, [2]int64{58, 188693}, [2]int64{44, 76689}},
		{1024, 16, 0xf4d39121935a5f, []int{0, 54}, []int{453, 0}, [2]int64{107, 1789723}, [2]int64{68, 1362385}},
	}
	for _, tc := range cases {
		g, err := graph.GNP(tc.n, 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		inst := graph.DeltaPlus1Instance(g)
		for _, backend := range []string{"clique", "clique-compact", "mpc"} {
			t.Run(fmt.Sprintf("n=%d/B=%d/%s", tc.n, tc.bins, backend), func(t *testing.T) {
				p := DefaultParams()
				p.AcceptFirstSeed = true
				p.ForceBins = tc.bins
				p.CompactPalettes = backend == "clique-compact"
				var f fabric.Fabric
				pw, wantRW := 8, tc.clique
				if backend == "mpc" {
					f, wantRW = newLinearCluster(t, inst, 64), tc.mpc
				} else {
					nw := cclique.New(tc.n)
					f, pw = nw, nw.MsgWords()
				}
				col, tr, err := Solve(f, pw, inst, p)
				if err != nil {
					t.Fatalf("Solve: %v\ntrace:\n%v", err, tr)
				}
				if err := verify.ListColoring(inst, col); err != nil {
					t.Fatal(err)
				}
				var extraBad, badNodes []int
				for _, d := range tr.PerDepth {
					extraBad = append(extraBad, d.ExtraBad)
					badNodes = append(badNodes, d.BadNodes)
				}
				if fp := verify.ColoringFingerprint(col); fp != tc.fp {
					t.Errorf("coloring fingerprint %#x, want %#x", fp, tc.fp)
				}
				if !slices.Equal(extraBad, tc.extraBad) || !slices.Equal(badNodes, tc.badNodes) {
					t.Errorf("per-depth ExtraBad %v BadNodes %v, want %v %v", extraBad, badNodes, tc.extraBad, tc.badNodes)
				}
				if rw := [2]int64{int64(f.Ledger().Rounds()), f.Ledger().WordsMoved()}; rw != wantRW {
					t.Errorf("rounds, words %v, want %v", rw, wantRW)
				}
				if slices.Max(extraBad) == 0 {
					t.Error("no node demoted: the case no longer reaches the safety net")
				}
			})
		}
	}
}
