package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/hashing"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

// workload is one named set of inputs. A library workload solves
// build(n, seed) on one model through a warm session; serve-mix (build nil)
// drives a ccserve subprocess, which builds its instances itself.
type workload struct {
	name  string
	model engine.Model
	n     int
	build func(n int, seed uint64) (*graph.Instance, error)
}

// The sizes keep every library op under about a second on a 2-vCPU box, so
// one run collects enough warm solves for a steady median, and keep peak
// memory under half a gigabyte.
var workloads = []*workload{
	// The paper's recursive regime: Δ ≈ n/4 drives the partition recursion
	// several levels deep with dozens of seed candidates and hundreds of
	// small rounds, so core, derand and fixed per-round cost dominate.
	{name: "dense-cclique", model: engine.ModelCClique, n: 2048, build: denseGNP},
	// Sparse and large: one partition with one seed candidate and a few
	// rounds that each move hundreds of thousands of words through ranged
	// parallel delivery, so fabric and collect dominate and derand does not.
	{name: "sparse-scale", model: engine.ModelCClique, n: 1 << 16, build: registryInstance("gnp")},
	// The only workload on the sublinear-space path (Theorem 1.4): lowspace
	// partition, the derandomized MIS pools and grouped MPC delivery.
	{name: "list-lowspace", model: engine.ModelLowSpace, n: 1 << 14, build: powerlawLists},
	// The serving path: HTTP, queue, cache keying and JSON around a mix of
	// cache hits and fresh solves.
	{name: "serve-mix", n: serveN},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
}

// denseGNP is G(n, 1/4) with the shared palette {1..Δ+1}.
func denseGNP(n int, seed uint64) (*graph.Instance, error) {
	g, err := graph.GNP(n, 0.25, seed)
	if err != nil {
		return nil, err
	}
	return graph.DeltaPlus1Instance(g), nil
}

// registryInstance builds the named registry scenario's canonical instance.
func registryInstance(name string) func(n int, seed uint64) (*graph.Instance, error) {
	return func(n int, seed uint64) (*graph.Instance, error) {
		spec, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		return spec.Instance(n, seed)
	}
}

// lowspaceGraphSeed fixes list-lowspace's graph. The power-law maximum
// degree is heavy-tailed: with a graph drawn per seed, the instance's
// n·(Δ+2) palette words, and with them set-up, memory and words moved,
// varied 1.7× between seeds. The list palettes still come from the run's
// seed.
const lowspaceGraphSeed = 13

// powerlawLists is the registry powerlaw graph on lowspaceGraphSeed with
// the registry's list palettes drawn from seed.
func powerlawLists(n int, seed uint64) (*graph.Instance, error) {
	spec, err := scenario.Lookup("powerlaw")
	if err != nil {
		return nil, err
	}
	g, err := spec.Graph(n, lowspaceGraphSeed)
	if err != nil {
		return nil, err
	}
	return spec.InstanceFromGraph(g, n, seed)
}

// pin is a solve's checked output: the instance and coloring fingerprints
// and the model's round and word counts. For serve-mix it covers the hot
// set: fingerprints combined in hot-set order, counts summed.
type pin struct {
	InstanceFP string `json:"instance_fp"`
	ColoringFP string `json:"coloring_fp"`
	Rounds     int    `json:"rounds"`
	Words      int64  `json:"words"`
}

func pinOf(instFP string, col graph.Coloring, rounds int, words int64) pin {
	return pin{instFP, hexFP(verify.ColoringFingerprint(col)), rounds, words}
}

// combinedPin folds per-solve fingerprints and counts into one pin.
func combinedPin(instFPs, colFPs []uint64, rounds int, words int64) pin {
	return pin{hexFP(hashing.Fingerprint(instFPs)), hexFP(hashing.Fingerprint(colFPs)), rounds, words}
}

func hexFP(fp uint64) string { return fmt.Sprintf("%#016x", fp) }

func sameOutput(got, want pin) error {
	if got != want {
		return fmt.Errorf("output %+v differs from the reference %+v", got, want)
	}
	return nil
}

// meta.json records, next to BENCHMARK.json, what its fixed keys cannot
// hold: why each workload exists, which end-to-end metric each per-layer
// metric should move, the machine shape, the default and holdout seeds, and
// the outputs pinned per workload and seed, which the runs check.
//
//go:embed meta.json
var metaJSON []byte

var pins = func() map[string]map[string]pin {
	var m struct {
		Workloads map[string]struct {
			Pins map[string]pin `json:"pins"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: embedded meta.json: %v", err))
	}
	out := make(map[string]map[string]pin, len(m.Workloads))
	for name, w := range m.Workloads {
		out[name] = w.Pins
	}
	return out
}()

// checkPin compares a seed's output with the value meta.json pins for it,
// if any, and reports whether a pin existed.
func checkPin(workload string, seed uint64, got pin) (bool, error) {
	want, ok := pins[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return false, nil
	}
	if got != want {
		return true, fmt.Errorf("%s seed %d: output %+v differs from the pinned %+v", workload, seed, got, want)
	}
	return true, nil
}

// referencePin computes a workload's output for one seed in-process through
// the engine, as users call it; -pin prints these for meta.json.
func referencePin(w *workload, seed uint64) (pin, error) {
	if w.build == nil {
		return servePin(seed)
	}
	su, err := newSetUp(w, seed)
	if err != nil {
		return pin{}, err
	}
	su.sess.Release()
	return su.out, nil
}

// pinNote says how a run's outputs were checked.
func pinNote(pinned bool) string {
	if pinned {
		return "matches the value pinned in meta.json"
	}
	return "seed not pinned: checked by the verifier and against the run's first solve"
}
