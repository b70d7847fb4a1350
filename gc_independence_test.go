package ccolor_test

import (
	"runtime"
	"testing"
	"time"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
)

// gcTestInstance is the registry gnp instance at n nodes, seed 1: a
// (Δ+1)-list instance every backend, low-space included, accepts.
func gcTestInstance(t *testing.T, n int) *graph.Instance {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation and goroutine counts skipped under -race")
	}
	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Instance(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestWarmSolveAllocsIndependentOfGC: a pinned session owns every buffer
// its solves use, so a warm solve right after two collections allocates as
// many objects as one without. Memory that a process-wide pool held
// instead would be emptied by the collections and rebuilt by the solve,
// thousands of objects at this size. The one slack is the runtime's tiny
// allocator: a collection empties each P's 16-byte tiny block, and
// MemStats.Mallocs counts the block as well as the objects in it, so a
// solve after a collection may count up to one more block per P.
func TestWarmSolveAllocsIndependentOfGC(t *testing.T) {
	inst := gcTestInstance(t, 1024)
	for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace} {
		t.Run(string(model), func(t *testing.T) {
			sess, err := ccolor.NewSolverSession(model)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Release()
			opts := &ccolor.Options{Model: model}
			mallocs := func(gc bool) uint64 {
				if gc {
					runtime.GC()
					runtime.GC()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := sess.Solve(inst, opts); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			mallocs(false) // cold: sizes the session
			mallocs(false)
			// Minima over interleaved solves: a worker's scratch can still
			// grow when it claims a larger chunk than before, which
			// depends on scheduling, not on the collector.
			warm, afterGC := mallocs(false), mallocs(true)
			for i := 0; i < 3; i++ {
				warm, afterGC = min(warm, mallocs(false)), min(afterGC, mallocs(true))
			}
			t.Logf("warm solve: %d objects, %d right after two GCs", warm, afterGC)
			if afterGC > warm+uint64(runtime.GOMAXPROCS(0)) {
				t.Fatalf("warm solve allocated %d objects right after two GCs, %d without", afterGC, warm)
			}
		})
	}
}

// TestFacadeSolveGoroutinesDoNotGrow: the facade releases a session's
// goroutines after every solve and parks at most one session per model,
// so twenty solves with two collections after each end with no more
// goroutines than they started with.
func TestFacadeSolveGoroutinesDoNotGrow(t *testing.T) {
	inst := gcTestInstance(t, 512)
	for _, model := range []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace} {
		t.Run(string(model), func(t *testing.T) {
			start := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				if _, err := ccolor.Solve(inst, &ccolor.Options{Model: model}); err != nil {
					t.Fatal(err)
				}
				runtime.GC()
				runtime.GC()
			}
			// Stopped workers exit asynchronously; give them a moment.
			got := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); got > start && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
				got = runtime.NumGoroutine()
			}
			if got > start {
				t.Fatalf("goroutines grew from %d to %d over 20 facade solves", start, got)
			}
		})
	}
}
