package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// TestTappedSolveMatchesEngine runs every workload shape at reduced n
// through the direct solver, bare and with the round tap and a recorder,
// cold and warm, and requires the engine's fingerprints, rounds and words.
func TestTappedSolveMatchesEngine(t *testing.T) {
	cases := []struct {
		name  string
		model engine.Model
		build func() (*graph.Instance, error)
	}{
		{"dense-cclique", engine.ModelCClique, func() (*graph.Instance, error) { return denseGNP(256, 3) }},
		{"sparse-scale", engine.ModelCClique, func() (*graph.Instance, error) { return registryInstance("gnp")(4096, 3) }},
		{"list-lowspace", engine.ModelLowSpace, func() (*graph.Instance, error) { return powerlawLists(1024, 3) }},
		{"serve-mix/gnp-mpc", engine.ModelMPC, func() (*graph.Instance, error) { return registryInstance("gnp")(512, 3) }},
		{"serve-mix/powerlaw-mpc", engine.ModelMPC, func() (*graph.Instance, error) { return registryInstance("powerlaw")(512, 3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			ifp := hexFP(verify.InstanceFingerprint(inst))
			es, err := engine.NewSession(c.model)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := es.Solve(inst, nil)
			es.Release()
			if err != nil {
				t.Fatal(err)
			}
			want := pinOf(ifp, rep.Coloring, rep.Rounds, rep.WordsMoved)

			d := &directSolver{model: c.model}
			defer d.release()
			for i, tapped := range []bool{false, true, true, false} {
				var tap *roundTap
				var rec *telemetry.Recorder
				if tapped {
					tap, rec = &roundTap{}, telemetry.NewRecorder()
				}
				s, err := d.solve(inst, tap, rec)
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				if got := pinOf(ifp, s.col, s.rounds, s.words); got != want {
					t.Fatalf("solve %d (tapped=%v): %+v, engine %+v", i, tapped, got, want)
				}
				if !tapped {
					continue
				}
				tr := rec.Finish(string(c.model))
				if s.core == nil { // low-space rounds run on the session's own clusters
					if tr.Rounds != s.low.ExecutedRounds+s.low.MISRounds {
						t.Fatalf("recorded %d rounds, trace says %d", tr.Rounds, s.low.ExecutedRounds+s.low.MISRounds)
					}
					continue
				}
				o := &opTrace{Rounds: tap.rounds}
				round, stage, words := o.roundTotals()
				if len(tap.rounds) != s.rounds || words != s.words || tr.Rounds != s.rounds {
					t.Fatalf("tap saw %d rounds / %d words, recorder %d rounds; ledger %d / %d",
						len(tap.rounds), words, tr.Rounds, s.rounds, s.words)
				}
				if stage > round || round > s.dur {
					t.Fatalf("stage %v > round %v or round > solve %v", stage, round, s.dur)
				}
			}
		})
	}
}

func TestRequestSequenceIsPureFunctionOfSeed(t *testing.T) {
	const n = 400
	seq := func(seed uint64) []request {
		out := make([]request, n)
		for i := range out {
			out[i] = requestAt(seed, i)
		}
		return out
	}
	for _, seed := range []uint64{1, 2, 1 << 40} {
		a := seq(seed)
		if !reflect.DeepEqual(a, seq(seed)) {
			t.Fatalf("seed %d: two sequences differ", seed)
		}
		if !reflect.DeepEqual(hotSet(seed), hotSet(seed)) {
			t.Fatalf("seed %d: two hot sets differ", seed)
		}
		hot := map[solveKey]bool{}
		for _, r := range hotSet(seed) {
			hot[keyOf(r)] = true
		}
		if len(hot) != len(serveModels)*hotSeedsPer {
			t.Fatalf("seed %d: hot set has %d distinct keys", seed, len(hot))
		}
		fresh := map[solveKey]bool{}
		hits, byModel := 0, map[engine.Model]int{}
		for i, r := range a {
			byModel[r.Model]++
			k := keyOf(r)
			if r.Hot {
				if !hot[k] {
					t.Fatalf("seed %d request %d: hot request %+v outside the hot set", seed, i, r)
				}
				hits++
				continue
			}
			if hot[k] || fresh[k] {
				t.Fatalf("seed %d request %d: fresh request %+v repeats a key", seed, i, r)
			}
			fresh[k] = true
		}
		if hits != 3*n/4 {
			t.Fatalf("seed %d: %d of %d requests hot, want three in four", seed, hits, n)
		}
		if byModel[engine.ModelCClique] != n/2 {
			t.Fatalf("seed %d: models not alternating: %v", seed, byModel)
		}
	}
	if reflect.DeepEqual(seq(1), seq(2)) {
		t.Fatal("seeds 1 and 2 give the same sequence")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v, pct, ok := tail(xs)
		if n <= tailBeyond {
			if ok || v != float64(n) {
				t.Fatalf("n=%d: got %v ok=%v, want the maximum and ok=false", n, v, ok)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if !ok || beyond != tailBeyond {
			t.Fatalf("n=%d: value %v has %d samples beyond it, want %d", n, v, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Fatalf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, _, _ := tail([]float64{}); v != 0 {
		t.Fatalf("no samples: got %v", v)
	}
}

// TestTablesMatchBenchmarkJSON keeps the metric tables, the workloads and
// meta.json's per-layer notes in step with BENCHMARK.json.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", b.PerLayer, perLayer)
	}

	var m struct {
		Workloads map[string]struct{ Why string }
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if m.Workloads[name].Why == "" {
			t.Errorf("meta.json gives no reason for workload %s", name)
		}
	}
	for _, d := range perLayer {
		key := d.name
		if strings.HasPrefix(key, "phase.") {
			key = "phase.*"
		}
		if _, ok := m.PerLayer[key]; !ok {
			t.Errorf("meta.json does not say what %s should move", d.name)
		}
	}
}

func (d *metricDef) UnmarshalJSON(data []byte) error {
	var v struct{ Name, Unit string }
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	d.name, d.unit = v.Name, v.Unit
	return nil
}
