// Command perfbench is the repository benchmark. It runs one named workload
// through the public entry points of the solver layers, checks every
// output, and prints its metrics by name with their units: the end-to-end
// metrics of an untraced run, or with -trace 1 the per-layer breakdown of a
// separate traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {"op_p50_s": {"value": 0.61, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds this program
// and ccserve into .bench_build/ first:
//
//	bash perfbench/run.sh --workload dense-cclique --seed 1 --seconds 15 --trace 0
//
// Inputs are a pure function of -seed. With -pin it prints the reference
// outputs of the given seeds for meta.json instead of measuring.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir receives the traced runs' span files; it lies in the build
// directory the repository ignores.
const outDir = ".bench_build/spans"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0 reports the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced run")
		ccserve = flag.String("ccserve", "", "ccserve binary, for serve-mix")
		pinList = flag.String("pin", "", "comma-separated seeds: print their reference outputs instead of measuring")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err == nil && !(*seconds > 0) {
		err = errors.New("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *pinList != "" {
		if err := printPins(w, *pinList); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	window := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	fmt.Printf("perfbench %s seed=%d window=%v trace=%d\n", w.name, *seed, window, *trace)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var t *tally
	switch {
	case w.build == nil:
		t = runServe(*seed, window, traced, *ccserve)
	case traced:
		t = runTraced(w, *seed, window)
	default:
		t = runTimed(w, *seed, window)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if !t.report(os.Stdout, defs) {
		os.Exit(1)
	}
}

// printPins prints the reference outputs of w for each seed as the JSON
// object meta.json keeps under the workload's "pins".
func printPins(w *workload, seeds string) error {
	out := map[string]pin{}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-pin: %w", err)
		}
		p, err := referencePin(w, seed)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		out[strconv.FormatUint(seed, 10)] = p
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
