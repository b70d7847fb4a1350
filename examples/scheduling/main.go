// Exam scheduling on a low-space cluster: courses sharing students must sit
// in different timeslots, and each course is only offered in certain slots
// (instructor availability). A course with k conflicts and k+1 permitted
// slots is exactly the (deg+1)-list coloring problem, solved here with the
// paper's low-space MPC algorithm (Theorem 1.4) — machines far smaller than
// a busy course's conflict list, with conflict lists and slot lists split
// into chunks across machines.
package main

import (
	"fmt"
	"log"

	"ccolor"
)

func main() {
	const courses = 800

	// Conflict graph: a power-law-ish enrollment pattern (large intro
	// courses conflict with many; seminars with few).
	g, err := ccolor.PowerLaw(courses, 6, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Timeslot lists: course v may use deg(v)+1 slots out of the term's
	// slot universe — the minimum that guarantees a feasible schedule.
	inst, err := ccolor.DegPlus1Instance(g, 4096, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Solve verifies the schedule against every course's slot list.
	rep, err := ccolor.Solve(inst, &ccolor.Options{Model: ccolor.ModelLowSpace})
	if err != nil {
		log.Fatal(err)
	}
	tr, schedule := rep.LowTrace, rep.Coloring

	fmt.Printf("%d courses, %d conflict pairs, max conflicts %d\n", courses, g.M(), g.MaxDegree())
	fmt.Printf("cluster: %d machines × %d words (𝔰 = 𝔫^ε); low-degree threshold τ=%d\n",
		tr.Machines, tr.SpaceWords, tr.Tau)
	fmt.Printf("rounds: %d partition + %d MIS (%d phases) — MIS dominates, as Theorem 1.4 predicts\n",
		tr.PartitionRounds, tr.MISRounds, tr.MISPhases)
	fmt.Printf("peak machine usage %d / %d words\n", tr.PeakMachineWords, tr.SpaceWords)
	for v := 0; v < 5; v++ {
		fmt.Printf("  course %d (%d conflicts): slot %d\n", v, g.Degree(int32(v)), schedule[v])
	}
	fmt.Println("conflict-free schedule within every course's permitted slots ✓")
}
