// Quickstart: color a random graph with Δ+1 colors in a simulated
// CONGESTED CLIQUE, deterministically, in a constant number of rounds
// (Czumaj–Davies–Parter, PODC 2020).
package main

import (
	"fmt"
	"log"

	"ccolor"
)

func main() {
	// 1. A workload: G(n, p) with n = 500 nodes.
	g, err := ccolor.GNP(500, 0.04, 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The (Δ+1)-coloring instance: every node gets palette {1..Δ+1}.
	inst := ccolor.DeltaPlus1Instance(g)

	// 3. Solve on the default model, a congested clique with one worker per
	//    graph node, with the paper-faithful parameters. Solve verifies the
	//    coloring before it returns.
	rep, err := ccolor.Solve(inst, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report.
	fmt.Printf("colored n=%d m=%d Δ=%d with %d colors\n",
		g.N(), g.M(), g.MaxDegree(), rep.ColorsUsed)
	fmt.Printf("model rounds: %d (recursion depth %d — Lemma 3.14 bounds it by 9)\n",
		rep.Rounds, rep.Trace.MaxRecursionDepth())
	fmt.Printf("node 0 → color %d, node 1 → color %d, …\n", rep.Coloring[0], rep.Coloring[1])
}
