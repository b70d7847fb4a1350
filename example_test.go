package ccolor_test

import (
	"fmt"
	"log"

	"ccolor"
)

// ExampleSolve colors a random graph with Δ+1 colors in the simulated
// CONGESTED CLIQUE and verifies the result.
func ExampleSolve() {
	g, err := ccolor.GNP(200, 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := ccolor.Solve(ccolor.DeltaPlus1Instance(g), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("complete:", rep.Coloring.Complete())
	fmt.Println("depth ≤ 9:", rep.Trace.MaxRecursionDepth() <= 9)
	// Output:
	// complete: true
	// depth ≤ 9: true
}

// ExampleSolve_list solves a list-coloring instance where every node has
// its own palette of Δ+1 colors from a large universe.
func ExampleSolve_list() {
	g, err := ccolor.RandomRegular(100, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := ccolor.ListInstance(g, 1_000_000, 5)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := ccolor.Solve(inst, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", ccolor.VerifyListColoring(inst, rep.Coloring) == nil)
	// Output:
	// verified: true
}

// ExampleSolve_lowSpace runs the low-space MPC algorithm on a (deg+1)-list
// instance and checks the machine-space budget held.
func ExampleSolve_lowSpace() {
	g, err := ccolor.PowerLaw(200, 3, 11)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := ccolor.DegPlus1Instance(g, 1<<16, 9)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelLowSpace})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("complete:", rep.Coloring.Complete())
	fmt.Println("space held:", rep.LowTrace.PeakMachineWords <= rep.LowTrace.SpaceWords)
	// Output:
	// complete: true
	// space held: true
}
