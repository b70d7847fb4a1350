package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric and its unit. The tables below must
// match BENCHMARK.json at the repository root; a test checks it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a timed (-trace 0) run reports: what a caller of
// the library or a client of ccserve sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_solve_s", "s"},
	{"op_p50_s", "s"},
	{"op_tail_s", "s"},
	{"ops_per_s", "1/s"},
	{"hit_p50_s", "s"},
	{"miss_p50_s", "s"},
	{"peak_rss_mb", "MB"},
	{"words_moved", "count"},
}

// phaseLabels are the fabric ledger's phase labels on the workloads'
// backends. Each gets phase.<label>_s, .rounds and .words in a traced run,
// with ':' written as '.'. Rounds under a label missing here (a phase added
// later) count under "other".
var phaseLabels = []string{
	"unlabeled", "control",
	"partition:select", "partition:announce",
	"collect:gather", "collect:scatter", "collect:notify",
	"lowspace:select", "lowspace:announce", "lowspace:notify",
	"mis:select", "mis:announce",
	"other",
}

// perLayer are the metrics a traced (-trace 1) run reports. meta.json
// records which end-to-end metric each should move, on which workload.
var perLayer = append([]metricDef{
	{"graph.generate_s", "s"},
	{"graph.instance_words", "count"},
	{"hashing.fingerprint_s", "s"},
	{"hashing.ns_per_word", "ns/word"},
	{"engine.workspace_words", "count"},
	{"engine.peak_round_words", "count"},
	{"core.local_s", "s"},
	{"core.recursion_depth", "count"},
	{"core.partitions", "count"},
	{"core.bad_nodes", "count"},
	{"core.waves", "count"},
	{"derand.seed_candidates", "count"},
	{"derand.accept_ratio", "ratio"},
	{"fabric.rounds", "count"},
	{"fabric.words", "count"},
	{"fabric.words_per_round", "count"},
	{"fabric.round_s", "s"},
	{"fabric.stage_s", "s"},
	{"fabric.deliver_s", "s"},
	{"fabric.deliver_ns_per_word", "ns/word"},
	{"fabric.round_p50_us", "us"},
	{"fabric.max_node_load", "count"},
	{"lowspace.solve_s", "s"},
	{"lowspace.critical_rounds", "count"},
	{"lowspace.mis_rounds", "count"},
	{"lowspace.mis_words", "count"},
	{"lowspace.space_headroom", "ratio"},
	{"verify.list_coloring_s", "s"},
	{"server.hit_elapsed_p50_s", "s"},
	{"server.miss_elapsed_p50_s", "s"},
	{"http.overhead_p50_s", "s"},
	{"server.cache_hit_frac", "ratio"},
	{"server.rejected", "count"},
	{"trace.op_wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_frac", "ratio"},
}, phaseMetrics()...)

func phaseMetrics() []metricDef {
	var out []metricDef
	for _, label := range phaseLabels {
		base := phaseBase(label)
		out = append(out,
			metricDef{base + "_s", "s"},
			metricDef{base + ".rounds", "count"},
			metricDef{base + ".words", "count"})
	}
	return out
}

func phaseBase(label string) string {
	return "phase." + strings.ReplaceAll(label, ":", ".")
}

// tally collects one run's outcome: operations attempted and failed, the
// problems the output checks found, and the measured metrics with a note
// each for the printed table.
type tally struct {
	attempted, failed int
	problems          []string
	nproblems         int
	values            map[string]float64
	notes             map[string]string
}

func newTally() *tally {
	return &tally{values: map[string]float64{}, notes: map[string]string{}}
}

// op counts one attempted operation; a non-nil err marks it failed. It
// reports whether the operation succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	t.problem(err)
	return false
}

// problem records a failed check (nil is ignored). Any problem makes the
// run incorrect; only the first few are kept for printing.
func (t *tally) problem(err error) {
	if err == nil {
		return
	}
	t.nproblems++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, err.Error())
	}
}

func (t *tally) set(name string, v float64, note string) {
	t.values[name] = v
	if note != "" {
		t.notes[name] = note
	}
}

// zeroMissing reports 0 for every metric of defs the run could not see.
func (t *tally) zeroMissing(defs []metricDef, note string) {
	for _, d := range defs {
		if _, ok := t.values[d.name]; !ok {
			t.set(d.name, 0, note)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the metric table for defs and, as the last line, the JSON
// result. It returns whether every check passed.
func (t *tally) report(w io.Writer, defs []metricDef) bool {
	res := jsonResult{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(w, "\n%-30s %16s  %-8s %s\n", "metric", "value", "unit", "note")
	for _, d := range defs {
		v, ok := t.values[d.name]
		if !ok && t.nproblems == 0 {
			t.problem(fmt.Errorf("metric %s was not measured", d.name))
		}
		res.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%-30s %16.6g  %-8s %s\n", d.name, v, d.unit, t.notes[d.name])
	}
	fmt.Fprintf(w, "%-30s %16.6g  %-8s %d of %d ops failed\n", "failed_frac",
		ratio(float64(t.failed), float64(t.attempted)), "ratio", t.failed, t.attempted)
	for _, p := range t.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	if t.nproblems > len(t.problems) {
		fmt.Fprintf(w, "FAILED CHECK: ... and %d more\n", t.nproblems-len(t.problems))
	}
	if res.Attempted == 0 { // nothing ran: report the run itself as the failed op
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = t.nproblems == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding the result: %v", err)) // every value is finite
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct
}
