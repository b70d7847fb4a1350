package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
	"ccolor/internal/server"
	"ccolor/internal/telemetry"
)

// The ccserve wire format. Requests describe the workload either as an
// explicit edge list or as a deterministic generator spec (kind + seed);
// both yield a canonical Instance, so identical requests hit the same cache
// entry. Response bodies are a deterministic function of the instance and
// options — anything request-scoped (cache hit, elapsed time, job id) rides
// in headers or envelopes, keeping bodies byte-identical across repeats.

// GraphSpec describes the input graph.
type GraphSpec struct {
	// Kind is one of "gnp", "regular", "powerlaw", "edges", or "scenario"
	// (a named workload from the internal/scenario registry).
	Kind string `json:"kind"`
	// Name selects the registry scenario for kind "scenario".
	Name string `json:"name,omitempty"`
	N    int    `json:"n"`
	// P is the G(n,p) edge probability.
	P float64 `json:"p,omitempty"`
	// D is the regular-graph degree.
	D int `json:"d,omitempty"`
	// Attach is the power-law edges-per-new-node attachment count.
	Attach int    `json:"attach,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// Edges is the explicit undirected edge list for kind "edges". It is
	// deferred as raw JSON and decoded token by token into a graph.EdgeSink
	// once n is known, so a large request never materializes an
	// intermediate [][2]int32 alongside the CSR arrays — and admission
	// (edge count, canonical word budget) runs *during* the stream, not
	// after the whole list has been allocated.
	Edges json.RawMessage `json:"edges,omitempty"`
}

// maxRequestNodes / maxRequestEdges bound per-request instance size so a
// single request cannot exhaust the process; larger workloads belong in
// offline ccbench runs.
const (
	maxRequestNodes = 1 << 20
	maxRequestEdges = 4 << 20
	// maxRequestWords bounds registry-scenario requests (and heavy palette
	// disciplines) by canonical encoded size — words of graph plus palettes —
	// instead of a flat node cap. The cap a node count implies varies by
	// orders of magnitude across families: a flat node limit both rejected
	// cheap sparse instances (a 2¹⁷-node torus is ~650Ki words) and admitted
	// monsters (rmat at the old 2¹⁵ limit carries ~55Mi words of list
	// palettes). 32 Mi words ≈ 256 MiB of canonical payload, checked before
	// palettes are materialized.
	maxRequestWords = 32 << 20
)

// Build materializes the graph.
func (gs *GraphSpec) Build() (*ccolor.Graph, error) {
	if gs.N < 0 || gs.N > maxRequestNodes {
		return nil, fmt.Errorf("n=%d out of range [0, %d]", gs.N, maxRequestNodes)
	}
	if gs.D < 0 || gs.Attach < 0 {
		return nil, fmt.Errorf("negative degree parameters (d=%d, attach=%d)", gs.D, gs.Attach)
	}
	switch gs.Kind {
	case "gnp":
		if exp := float64(gs.N) * float64(gs.N-1) / 2 * gs.P; exp > maxRequestEdges {
			return nil, fmt.Errorf("gnp(n=%d, p=%g) expects ~%.0f edges, over the %d limit",
				gs.N, gs.P, exp, maxRequestEdges)
		}
		return ccolor.GNP(gs.N, gs.P, gs.Seed)
	case "regular":
		if e := float64(gs.N) * float64(gs.D) / 2; e > maxRequestEdges {
			return nil, fmt.Errorf("regular(n=%d, d=%d) has %.0f edges, over the %d limit",
				gs.N, gs.D, e, maxRequestEdges)
		}
		return ccolor.RandomRegular(gs.N, gs.D, gs.Seed)
	case "powerlaw":
		if e := float64(gs.N) * float64(gs.Attach); e > maxRequestEdges {
			return nil, fmt.Errorf("powerlaw(n=%d, attach=%d) has ~%.0f edges, over the %d limit",
				gs.N, gs.Attach, e, maxRequestEdges)
		}
		return ccolor.PowerLaw(gs.N, gs.Attach, gs.Seed)
	case "edges":
		return gs.buildEdges()
	case "scenario":
		spec, err := gs.scenario()
		if err != nil {
			return nil, err
		}
		g, err := spec.Graph(gs.N, gs.Seed)
		if err != nil {
			return nil, err
		}
		if w := graph.GraphWordCount(g); w > maxRequestWords {
			return nil, fmt.Errorf("scenario %s at n=%d encodes to %d words, over the %d limit",
				gs.Name, gs.N, w, maxRequestWords)
		}
		return g, nil
	}
	return nil, fmt.Errorf("unknown graph kind %q (want gnp, regular, powerlaw, edges, or scenario)", gs.Kind)
}

// buildEdges streams the deferred edge-list JSON through a graph.EdgeSink:
// each pair is decoded and fed straight into the CSR builder, with the edge
// cap and the canonical word budget (2 + (n+1) + 2m graph words) enforced as
// the count grows. A violating request fails after at most maxRequestEdges+1
// pairs of work regardless of how many the body carries; node-range errors
// and self loops are latched by the sink and surface from Build.
func (gs *GraphSpec) buildEdges() (*ccolor.Graph, error) {
	sink, err := graph.NewEdgeSink(gs.N)
	if err != nil {
		return nil, err // ErrTooManyNodes admission (redundant below maxRequestNodes, load-bearing if the cap is ever raised)
	}
	if len(gs.Edges) == 0 || bytes.Equal(gs.Edges, []byte("null")) {
		return sink.Build() // edgeless graph, matching the old nil-slice behavior
	}
	dec := json.NewDecoder(bytes.NewReader(gs.Edges))
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("edges: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("edges: expected an array, got %v", tok)
	}
	words := int64(2) + int64(gs.N) + 1 // canonical graph header + offsets
	pair := make([]int32, 0, 2)         // reused across the stream; unmarshal into a fixed-size array would silently drop extra elements
	for dec.More() {
		if sink.M() >= maxRequestEdges {
			return nil, fmt.Errorf("edge list exceeds limit %d", maxRequestEdges)
		}
		pair = pair[:0]
		if err := dec.Decode(&pair); err != nil {
			return nil, fmt.Errorf("edges[%d]: %w", sink.M(), err)
		}
		if len(pair) != 2 {
			return nil, fmt.Errorf("edges[%d]: got %d endpoints, want 2", sink.M(), len(pair))
		}
		sink.Add(pair[0], pair[1])
		if words += 2; words > maxRequestWords {
			return nil, fmt.Errorf("edge list at n=%d encodes past %d words", gs.N, maxRequestWords)
		}
	}
	if _, err := dec.Token(); err != nil { // consume the closing ']'
		return nil, fmt.Errorf("edges: %w", err)
	}
	return sink.Build()
}

// scenario resolves a kind "scenario" spec. The real admission bound is
// maxRequestWords on the built result; the node check here only keeps
// generation itself affordable (every registry generator is ~O(n + m)).
func (gs *GraphSpec) scenario() (*scenario.Spec, error) {
	spec, err := scenario.Lookup(gs.Name)
	if err != nil {
		return nil, err
	}
	if gs.N > maxRequestNodes {
		return nil, fmt.Errorf("scenario n=%d over the %d limit", gs.N, maxRequestNodes)
	}
	return spec, nil
}

// PaletteSpec describes how node palettes are assigned.
type PaletteSpec struct {
	// Kind is "delta+1" (default), "list", or "deg+1".
	Kind string `json:"kind,omitempty"`
	// Universe is the color-universe size for "list" / "deg+1"; 0 means 4·n.
	Universe int64  `json:"universe,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Palettes gives explicit per-node color lists (overrides Kind).
	Palettes [][]ccolor.Color `json:"palettes,omitempty"`
}

// Build materializes the instance for the graph.
func (ps *PaletteSpec) Build(g *ccolor.Graph, model ccolor.Model) (*ccolor.Instance, error) {
	if len(ps.Palettes) > 0 {
		pals := make([]ccolor.Palette, len(ps.Palettes))
		for v, colors := range ps.Palettes {
			p, err := ccolor.NewPalette(colors)
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", v, err)
			}
			pals[v] = p
		}
		return ccolor.NewInstance(g, pals)
	}
	kind := ps.Kind
	if kind == "" {
		if model == ccolor.ModelLowSpace {
			kind = "deg+1" // Theorem 1.4's native problem
		} else {
			kind = "delta+1"
		}
	}
	universe := ps.Universe
	if universe == 0 {
		universe = int64(4 * g.N())
	}
	switch kind {
	case "delta+1":
		return ccolor.DeltaPlus1Instance(g), nil
	case "list":
		// List palettes carry Δ+1 colors per node; bound the mass before
		// allocating it (deg+1 palettes total only 2m+n words and are
		// covered by the edge budget).
		if w := graph.GraphWordCount(g) + int64(g.N())*int64(g.MaxDegree()+2); w > maxRequestWords {
			return nil, fmt.Errorf("list palettes for n=%d, Δ=%d encode to %d words, over the %d limit",
				g.N(), g.MaxDegree(), w, maxRequestWords)
		}
		return ccolor.ListInstance(g, universe, ps.Seed)
	case "deg+1":
		return ccolor.DegPlus1Instance(g, universe, ps.Seed)
	}
	return nil, fmt.Errorf("unknown palette kind %q (want delta+1, list, or deg+1)", kind)
}

// ColorRequest is the POST /v1/solve (and per-entry /v1/batch) body.
type ColorRequest struct {
	// Model is "cclique" (default), "mpc", or "lowspace".
	Model string `json:"model,omitempty"`
	// Problem selects the registry problem next to the graph kind:
	// "coloring" (default), "mis", or "rulingset".
	Problem string `json:"problem,omitempty"`
	// Beta is the ruling-set domination radius (0 = registry default 2);
	// rejected for other problems.
	Beta    int         `json:"beta,omitempty"`
	Graph   GraphSpec   `json:"graph"`
	Palette PaletteSpec `json:"palette,omitempty"`
	// MPCSpaceFactor scales per-machine space for the mpc model (0 = default).
	MPCSpaceFactor int `json:"mpc_space_factor,omitempty"`
	// Async enqueues the job and returns 202 with a job id instead of the
	// result (single-job endpoint only).
	Async bool `json:"async,omitempty"`
	// OmitColoring drops the solution vector (coloring or set members) from
	// the response; the telemetry, content key, and summary fields remain.
	OmitColoring bool `json:"omit_coloring,omitempty"`
	// Scenario is an optional label for metrics attribution.
	Scenario string `json:"scenario,omitempty"`
}

// Spec compiles the request into a server job spec.
func (cr *ColorRequest) Spec() (server.Spec, error) {
	model := ccolor.ModelCClique
	if cr.Model != "" {
		m, err := ccolor.ParseModel(cr.Model)
		if err != nil {
			return server.Spec{}, err
		}
		model = m
	}
	prob, err := ccolor.ParseProblem(cr.Problem)
	if err != nil {
		return server.Spec{}, err
	}
	var inst *ccolor.Instance
	if cr.Graph.Kind == "scenario" && cr.Palette.Kind == "" && len(cr.Palette.Palettes) == 0 {
		// Registry scenarios carry their own palette discipline; with no
		// palette override the request resolves to the scenario's canonical
		// instance — the same one the golden ledgers and the differential
		// harness pin, so its content address is shared across clients.
		spec, err := cr.Graph.scenario()
		if err != nil {
			return server.Spec{}, fmt.Errorf("graph: %w", err)
		}
		g, err := spec.Graph(cr.Graph.N, cr.Graph.Seed)
		if err != nil {
			return server.Spec{}, fmt.Errorf("graph: %w", err)
		}
		// Bound by predicted canonical size before palettes exist: for the
		// heavy-tailed list-palette families the palette mass n·(Δ+1)
		// dominates the graph by orders of magnitude.
		if w := spec.InstanceWords(g); w > maxRequestWords {
			return server.Spec{}, fmt.Errorf("graph: scenario %s at n=%d encodes to %d words, over the %d limit",
				cr.Graph.Name, cr.Graph.N, w, maxRequestWords)
		}
		inst, err = spec.InstanceFromGraph(g, cr.Graph.N, cr.Graph.Seed)
		if err != nil {
			return server.Spec{}, fmt.Errorf("graph: %w", err)
		}
	} else {
		g, err := cr.Graph.Build()
		if err != nil {
			return server.Spec{}, fmt.Errorf("graph: %w", err)
		}
		inst, err = cr.Palette.Build(g, model)
		if err != nil {
			return server.Spec{}, fmt.Errorf("palette: %w", err)
		}
	}
	return server.Spec{
		Model:          model,
		Inst:           inst,
		Problem:        prob,
		Beta:           cr.Beta,
		MPCSpaceFactor: cr.MPCSpaceFactor,
		Scenario:       cr.Scenario,
		OmitColoring:   cr.OmitColoring,
	}, nil
}

// ColorResponse is the deterministic result body: identical instances yield
// byte-identical serializations (encoding/json emits struct fields in
// declaration order and sorts map keys).
type ColorResponse struct {
	Model string `json:"model"`
	// Problem is the registry problem the job solved.
	Problem string `json:"problem"`
	// Key is the content address of the instance (canonical-encoding
	// fingerprint).
	Key        string         `json:"key"`
	N          int            `json:"n"`
	M          int            `json:"m"`
	ColorsUsed int            `json:"colors_used,omitempty"`
	Coloring   []ccolor.Color `json:"coloring,omitempty"`
	// Set lists the solution set's members (sorted node ids) for set-shaped
	// problems; SetSize and Beta summarize it (Beta only for ruling sets).
	Set     []int32 `json:"set,omitempty"`
	SetSize int     `json:"set_size,omitempty"`
	Beta    int     `json:"beta,omitempty"`
	// Rounds / WordsMoved / MaxNodeLoad are the per-job model-cost ledger.
	Rounds        int            `json:"rounds"`
	WordsMoved    int64          `json:"words_moved"`
	MaxNodeLoad   int64          `json:"max_node_load"`
	RoundsByPhase map[string]int `json:"rounds_by_phase,omitempty"`
	Machines      int            `json:"machines,omitempty"`
	Space         int64          `json:"space,omitempty"`
	PeakSpace     int64          `json:"peak_space,omitempty"`
}

func buildColorResponse(res *server.Result, omitColoring bool) *ColorResponse {
	rep := res.Report
	out := &ColorResponse{
		Model:         string(rep.Model),
		Problem:       string(rep.Problem),
		Key:           res.Key,
		N:             res.N,
		M:             res.M,
		ColorsUsed:    rep.ColorsUsed,
		SetSize:       rep.SetSize,
		Beta:          rep.Beta,
		Rounds:        rep.Rounds,
		WordsMoved:    rep.WordsMoved,
		MaxNodeLoad:   rep.MaxNodeLoad,
		RoundsByPhase: make(map[string]int, len(rep.PhaseProfile)),
		Machines:      rep.Machines,
		Space:         rep.Space,
		PeakSpace:     rep.PeakSpace,
	}
	for phase, ps := range rep.PhaseProfile {
		out.RoundsByPhase[phase] = ps.Rounds
	}
	if !omitColoring {
		out.Coloring = rep.Coloring
		if rep.Set != nil {
			out.Set = make([]int32, 0, rep.SetSize)
			for v, in := range rep.Set {
				if in {
					out.Set = append(out.Set, int32(v))
				}
			}
		}
	}
	return out
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Jobs []ColorRequest `json:"jobs"`
}

// BatchEntry is one per-job outcome in a batch response.
type BatchEntry struct {
	OK     bool           `json:"ok"`
	Error  string         `json:"error,omitempty"`
	Result *ColorResponse `json:"result,omitempty"`
}

// BatchResponse is the POST /v1/batch response body.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// JobEnvelope is the GET /v1/jobs/{id} response body.
type JobEnvelope struct {
	ID     string         `json:"id"`
	State  string         `json:"state"`
	Error  string         `json:"error,omitempty"`
	Result *ColorResponse `json:"result,omitempty"`
}

// TraceEnvelope is the GET /v1/jobs/{id}/trace response body: the solve's
// phase-attributed telemetry spans, addressed by the trace ID the job's
// result carried in its X-Trace-Id header.
type TraceEnvelope struct {
	JobID   string           `json:"job_id"`
	TraceID string           `json:"trace_id"`
	Trace   *telemetry.Trace `json:"trace"`
}
