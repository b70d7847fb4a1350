// Package problem is ccolor's problem registry: a fixed catalog of the
// local symmetry-breaking problems the solve core serves, mirroring
// internal/scenario's registry pattern. Each entry is a descriptor — kind,
// output shape, instance requirements, an independent checker, and the
// golden-ledger key prefix — and everything downstream (the session engine,
// the serving layer's /v1/solve route and per-problem metrics, the golden
// and differential harnesses, and the CLIs) selects problems by registry
// kind, so a problem added here is automatically exercised by all of them.
//
// The paper's derandomized pair-sampling machinery is explicitly a template
// for other symmetry-breaking problems; the registry is how the repo cashes
// that in: (Δ+1)/(deg+1)-list coloring, maximal independent sets, and
// deterministic (2,β)-ruling sets run on the same three backends through
// the same session, telemetry, and verification stack.
package problem

import (
	"fmt"
	"strings"

	"ccolor/internal/graph"
	"ccolor/internal/verify"
)

// Kind names a problem in the registry.
type Kind string

const (
	// Coloring is (Δ+1)/(deg+1)-list coloring — the paper's headline
	// problem and the default for every entry point.
	Coloring Kind = "coloring"
	// MIS is the maximal independent set problem, solved by the same
	// derandomized priority machinery the low-space coloring path already
	// runs internally.
	MIS Kind = "mis"
	// RulingSet is the deterministic (2,β)-ruling set problem, built by
	// iterated MIS on power graphs (Pai–Pemmaraju, PAPERS.md).
	RulingSet Kind = "rulingset"
)

// Output is the shape of a problem's solution.
type Output string

const (
	// OutputColoring solutions assign a color per node.
	OutputColoring Output = "coloring"
	// OutputSet solutions select a node subset.
	OutputSet Output = "set"
)

// Solution is the problem-shaped half of a solve result: exactly one of
// Coloring or Set is populated, per the problem's Output shape. Beta
// records the domination radius a ruling-set solve was run with (zero
// otherwise).
type Solution struct {
	Coloring graph.Coloring
	Set      []bool
	Beta     int
}

// Spec is one registry entry: a named, documented problem with its
// independent checker.
type Spec struct {
	// Kind is the registry key ("mis").
	Kind Kind
	// Title is the human name ("maximal independent set").
	Title string
	// Description documents the contract the checker enforces.
	Description string
	// Output is the solution shape.
	Output Output
	// NeedsPalettes reports whether instances must carry per-node palettes
	// (set problems run on the graph alone and ignore them).
	NeedsPalettes bool
	// DefaultBeta is the default domination radius for RulingSet (zero for
	// other problems).
	DefaultBeta int
	// GoldenKey is the prefix golden-ledger maps key this problem under.
	GoldenKey string

	check func(inst *graph.Instance, sol *Solution) error
}

// Check independently verifies a solution against the instance, using the
// problem's own oracle (never the solver's bookkeeping).
func (s *Spec) Check(inst *graph.Instance, sol *Solution) error {
	if sol == nil {
		return fmt.Errorf("problem %s: nil solution", s.Kind)
	}
	if err := s.check(inst, sol); err != nil {
		return fmt.Errorf("problem %s: %w", s.Kind, err)
	}
	return nil
}

// Fingerprint is the canonical solution fingerprint golden ledgers and
// agreement reports compare for this problem's output shape.
func (s *Spec) Fingerprint(sol *Solution) uint64 {
	if s.Output == OutputSet {
		return verify.SetFingerprint(sol.Set)
	}
	return verify.ColoringFingerprint(sol.Coloring)
}

// registry is the fixed catalog, in presentation order; coloring stays
// first — it is the default every legacy entry point resolves to.
var registry = []*Spec{
	{
		Kind:          Coloring,
		Title:         "(Δ+1)/(deg+1)-list coloring",
		Description:   "complete proper coloring with every node's color drawn from its palette",
		Output:        OutputColoring,
		NeedsPalettes: true,
		GoldenKey:     "coloring",
		check: func(inst *graph.Instance, sol *Solution) error {
			return verify.ListColoring(inst, sol.Coloring)
		},
	},
	{
		Kind:        MIS,
		Title:       "maximal independent set",
		Description: "independent node set no vertex can join: every non-member has a member neighbor",
		Output:      OutputSet,
		GoldenKey:   "mis",
		check: func(inst *graph.Instance, sol *Solution) error {
			return verify.MIS(inst.G, sol.Set)
		},
	},
	{
		Kind:        RulingSet,
		Title:       "(2,β)-ruling set",
		Description: "independent node set dominating every vertex within β hops (default β=2), via iterated power-graph MIS",
		Output:      OutputSet,
		DefaultBeta: 2,
		GoldenKey:   "rulingset",
		check: func(inst *graph.Instance, sol *Solution) error {
			beta := sol.Beta
			if beta <= 0 {
				beta = 2
			}
			return verify.RulingSet(inst.G, sol.Set, beta)
		},
	},
}

// All returns the registry in catalog order. The slice is shared: callers
// must not mutate it.
func All() []*Spec { return registry }

// Kinds returns the registered problem kinds in catalog order.
func Kinds() []Kind {
	out := make([]Kind, len(registry))
	for i, s := range registry {
		out[i] = s.Kind
	}
	return out
}

// Names returns the registered kinds as strings, for flag docs and errors.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = string(s.Kind)
	}
	return out
}

// Lookup resolves a kind name; the empty string resolves to Coloring. The
// error lists the catalog, so CLIs and the serving layer surface the menu
// for free.
func Lookup(name string) (*Spec, error) {
	if name == "" {
		name = string(Coloring)
	}
	for _, s := range registry {
		if string(s.Kind) == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown problem %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Default returns the coloring spec — the problem every legacy entry point
// resolves to.
func Default() *Spec { return registry[0] }
