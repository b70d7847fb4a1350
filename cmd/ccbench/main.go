// ccbench regenerates the reproduction experiment tables (one per
// expt.Registry entry, whose Claim field names the paper claim it tests)
// and doubles as a load generator for cmd/ccserve.
//
// Usage:
//
//	ccbench                 # run every experiment at full scale
//	ccbench -e E1,E7        # run selected experiments
//	ccbench -scale 0.5      # shrink workloads
//	ccbench -csv results/   # also write one CSV per table
//
//	ccbench -serve-url http://localhost:8080 \
//	        -concurrency 64 -duration 30s \
//	        -mix all \
//	        -models cclique,mpc,lowspace \
//	        -problems coloring,mis,rulingset   # drive a running ccserve across the problem registry
//
//	ccbench -trace -mix all -sizes 96,256   # local per-phase latency/traffic profile
//
//	ccbench -e E1 -cpuprofile cpu.pprof -memprofile mem.pprof   # hot-path profiles
//
// -cpuprofile/-memprofile wrap whichever mode runs, so solver hot paths can
// be profiled straight from the registry mixes (`ccbench -trace -cpuprofile
// cpu.pprof`) without writing a throwaway benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ccolor/internal/expt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		ids    = flag.String("e", "all", "comma-separated experiment IDs, or 'all'")
		scale  = flag.Float64("scale", 1.0, "workload scale factor")
		seed   = flag.Uint64("seed", 2020, "workload generation seed")
		csvDir = flag.String("csv", "", "directory to write per-table CSV files (optional)")

		serveURL    = flag.String("serve-url", "", "ccserve base URL; set to run in load-generator mode")
		concurrency = flag.Int("concurrency", 64, "load mode: concurrent client workers")
		duration    = flag.Duration("duration", 10*time.Second, "load mode: run length")
		mix         = flag.String("mix", "gnp=2,regular=1,powerlaw=1", "load mode: weighted registry-scenario mix (any internal/scenario name, or 'all')")
		models      = flag.String("models", "cclique,mpc,lowspace", "load mode: model rotation")
		problems    = flag.String("problems", "coloring", "load/trace mode: registry-problem rotation (coloring|mis|rulingset)")
		sizes       = flag.String("sizes", "64,128,256", "load mode: node counts to sample")
		distinct    = flag.Int("distinct", 32, "load mode: distinct seeds per scenario shape (cache churn)")

		traceMode = flag.Bool("trace", false, "trace mode: solve the -mix scenarios locally with telemetry on and print merged per-phase profiles (uses -mix, -models, -sizes, -seed)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ccbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ccbench: memprofile:", err)
			}
		}()
	}

	if *traceMode {
		return runTrace(traceConfig{
			Mix:      *mix,
			Models:   *models,
			Problems: *problems,
			Sizes:    *sizes,
			Seed:     *seed,
		})
	}

	if *serveURL != "" {
		return runLoad(loadConfig{
			URL:         *serveURL,
			Concurrency: *concurrency,
			Duration:    *duration,
			Mix:         *mix,
			Models:      *models,
			Problems:    *problems,
			Sizes:       *sizes,
			Distinct:    *distinct,
			Seed:        *seed,
		})
	}

	cfg := expt.Config{Scale: *scale, Seed: *seed}
	var selected []expt.Experiment
	if *ids == "all" {
		selected = expt.Registry()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := expt.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: E1..E10, A1..A3)", id)
			}
			selected = append(selected, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("# %s — %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
		for _, tb := range tables {
			fmt.Println(tb.Render())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, tb.ID+".csv")
				if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
		fmt.Printf("# %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
