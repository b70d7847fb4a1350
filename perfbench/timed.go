package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

// setupRepeats is how many times one run sets up from scratch; setup_s and
// cold_solve_s report the median, so one slow set-up cannot move them.
const setupRepeats = 7

// setupSeed is the instance seed of set-up i. Set-up 0 uses the run's seed
// and its session serves the warm loop; the others use seeds derived from
// it, so the set-up medians average over instances of the workload's
// family instead of repeating one whose size happens to be extreme.
func setupSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return splitmix(seed) + uint64(i)
}

// runTimed measures a library workload untraced. It sets up setupRepeats
// times (generate, fingerprint, cold solve on a new engine session), last
// on the run's own seed, then runs warm solves on that session in a closed
// loop with one caller until the window ends. Every coloring is verified,
// and every warm solve must reproduce the cold solve's fingerprints, rounds
// and words exactly.
func runTimed(w *workload, seed uint64, window time.Duration) *tally {
	t := newTally()
	var (
		setups, colds []float64
		last          *setUp
	)
	defer func() {
		if last != nil {
			last.sess.Release()
		}
	}()
	for i := setupRepeats - 1; i >= 0; i-- {
		if last != nil {
			last.sess.Release()
			last = nil
			runtime.GC() // free the previous set-up before timing the next
		}
		su, err := newSetUp(w, setupSeed(seed, i))
		if !t.op(err) {
			return t
		}
		last = su
		setups = append(setups, su.total.Seconds())
		colds = append(colds, su.cold.Seconds())
	}
	ref := last.out
	pinned, err := checkPin(w.name, seed, ref)
	t.problem(err)
	printInput(w, seed, last.inst, ref)
	sess, inst := last.sess, last.inst
	runtime.GC() // the set-ups' garbage is theirs: do not let the warm loop pay for it

	var lat []float64
	start := time.Now()
	deadline := start.Add(window)
	for first := true; first || time.Now().Before(deadline); first = false {
		t0 := time.Now()
		rep, err := sess.Solve(inst, nil)
		d := time.Since(t0).Seconds()
		if err == nil {
			err = sameOutput(pinOf(ref.InstanceFP, rep.Coloring, rep.Rounds, rep.WordsMoved), ref)
		}
		if t.op(err) {
			lat = append(lat, d)
		}
	}
	wall := time.Since(start).Seconds()

	ops := len(lat)
	p50 := median(lat)
	tailV, tailNote := tailMetric(lat)
	cold := median(colds)
	t.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups: generate + fingerprint + cold solve", len(setups)))
	t.set("cold_solve_s", cold, fmt.Sprintf("median of %d solves on a fresh session", len(colds)))
	t.set("op_p50_s", p50, fmt.Sprintf("%d warm solves, one caller", ops))
	t.set("op_tail_s", tailV, tailNote)
	t.set("ops_per_s", ratio(float64(ops), wall), fmt.Sprintf("over %.1fs", wall))
	t.set("hit_p50_s", p50, "warm session: simulator, workspace and palette template reused")
	t.set("miss_p50_s", cold, "fresh session: nothing reused")
	t.set("peak_rss_mb", selfPeakRSSMB(), "this process")
	t.set("words_moved", float64(ref.Words), pinNote(pinned))
	return t
}

// setUp is one set-up from scratch: the instance generated and
// fingerprinted, and its cold solve on a new engine session, verified.
type setUp struct {
	sess        *engine.Session
	inst        *graph.Instance
	out         pin
	total, cold time.Duration
}

func newSetUp(w *workload, seed uint64) (*setUp, error) {
	t0 := time.Now()
	inst, err := w.build(w.n, seed)
	if err != nil {
		return nil, err
	}
	ifp := verify.InstanceFingerprint(inst)
	sess, err := engine.NewSession(w.model)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep, err := sess.Solve(inst, nil)
	t2 := time.Now()
	if err == nil {
		err = verify.ListColoring(inst, rep.Coloring)
	}
	if err != nil {
		sess.Release()
		return nil, err
	}
	return &setUp{sess, inst, pinOf(hexFP(ifp), rep.Coloring, rep.Rounds, rep.WordsMoved), t2.Sub(t0), t2.Sub(t1)}, nil
}

// tailMetric reports the tail latency and a note naming its percentile and
// sample count.
func tailMetric(lat []float64) (float64, string) {
	v, pct, ok := tail(lat)
	if !ok {
		return v, fmt.Sprintf("max of %d samples (fewer than %d)", len(lat), tailBeyond+1)
	}
	return v, fmt.Sprintf("p%.1f of %d samples, %d beyond", pct, len(lat), tailBeyond)
}

func printInput(w *workload, seed uint64, inst *graph.Instance, ref pin) {
	fmt.Printf("input: %s seed=%d n=%d m=%d Δ=%d instance_words=%d instance_fp=%s\n",
		w.name, seed, inst.G.N(), inst.G.M(), inst.G.MaxDegree(), graph.InstanceWordCount(inst), ref.InstanceFP)
	fmt.Printf("output: coloring_fp=%s rounds=%d words=%d\n", ref.ColoringFP, ref.Rounds, ref.Words)
}

// selfPeakRSSMB is this process's peak resident set size in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
