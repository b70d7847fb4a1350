// MPC deployment tour: the same ColorReduce code runs on the congested
// clique and on a linear-space MPC cluster (paper §1.2), and the Theorem
// 1.3 compact-palette mode shows the O(𝔪+𝔫) global-space trick for
// (Δ+1)-coloring: palettes stored as a hash-restriction chain plus used
// colors instead of materialized lists.
package main

import (
	"fmt"
	"log"
	"slices"

	"ccolor"
)

func main() {
	g, err := ccolor.RandomRegular(800, 48, 5)
	if err != nil {
		log.Fatal(err)
	}
	inst := ccolor.DeltaPlus1Instance(g)
	fmt.Printf("workload: %d-regular, n=%d, palette storage if materialized: %d words\n\n",
		g.MaxDegree(), g.N(), inst.PaletteMass())

	// Every deployment's coloring is verified by Solve before it returns.
	solve := func(opts *ccolor.Options) *ccolor.Report {
		rep, err := ccolor.Solve(inst, opts)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	// Deployment 1: CONGESTED CLIQUE (Theorem 1.1).
	clique := solve(&ccolor.Options{Model: ccolor.ModelCClique})
	fmt.Printf("congested clique:  rounds=%-4d maxLoad=%d words/node/round\n",
		clique.Rounds, clique.MaxNodeLoad)

	// Deployment 2: linear-space MPC (Theorem 1.2) — same algorithm, space
	// enforced per machine.
	mat := solve(&ccolor.Options{Model: ccolor.ModelMPC})
	fmt.Printf("linear-space MPC:  rounds=%-4d machines=%d 𝔰=%d peak=%d\n",
		mat.Rounds, mat.Machines, mat.Space, mat.PeakSpace)

	// Deployment 3: compact palettes (Theorem 1.3) — identical run, O(𝔪+𝔫)
	// palette storage.
	p := ccolor.DefaultParams()
	p.CompactPalettes = true
	compact := solve(&ccolor.Options{Model: ccolor.ModelMPC, Params: &p})
	fmt.Printf("compact palettes:  palette words %d → %d (𝔪+𝔫 = %d)\n\n",
		mat.Trace.PeakPaletteWords, compact.Trace.PeakPaletteWords, g.M()+g.N())

	fmt.Printf("all three deployments verified ✓ (compact ≡ materialized coloring: %v)\n",
		slices.Equal(mat.Coloring, compact.Coloring))
}
