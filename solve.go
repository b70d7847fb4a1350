package ccolor

import (
	"ccolor/internal/engine"
	"ccolor/internal/graph"
	"ccolor/internal/problem"
)

// Model selects which of the paper's execution models runs a job.
type Model = engine.Model

const (
	// ModelCClique is the CONGESTED CLIQUE (Theorem 1.1).
	ModelCClique = engine.ModelCClique
	// ModelMPC is linear-space MPC (Theorems 1.2–1.3).
	ModelMPC = engine.ModelMPC
	// ModelLowSpace is sublinear-space MPC (Theorem 1.4); instances must be
	// (deg+1)-list instances.
	ModelLowSpace = engine.ModelLowSpace
)

// ParseModel validates a model name.
func ParseModel(s string) (Model, error) { return engine.ParseModel(s) }

// Problem selects which registry problem (internal/problem) a Solve call
// answers. Every problem runs on all three models through the same warm
// session machinery.
type Problem = problem.Kind

const (
	// ProblemColoring is (Δ+1)/(deg+1)-list coloring — the default.
	ProblemColoring = problem.Coloring
	// ProblemMIS is the maximal independent set problem.
	ProblemMIS = problem.MIS
	// ProblemRulingSet is the deterministic (2,β)-ruling set problem
	// (default β = 2), built by iterated MIS on power graphs.
	ProblemRulingSet = problem.RulingSet
)

// Problems lists the registered problems in catalog order.
func Problems() []Problem { return problem.Kinds() }

// ParseProblem validates a problem name; the empty string means
// ProblemColoring.
func ParseProblem(s string) (Problem, error) {
	spec, err := problem.Lookup(s)
	if err != nil {
		return "", err
	}
	return spec.Kind, nil
}

// DefaultBeta returns the registry-default domination radius for a problem
// (2 for ProblemRulingSet, 0 for everything else).
func DefaultBeta(p Problem) int {
	spec, err := problem.Lookup(string(p))
	if err != nil {
		return 0
	}
	return spec.DefaultBeta
}

// ProblemNeedsSet reports whether the problem's solution is a node subset
// (Report.Set) rather than a coloring.
func ProblemNeedsSet(p Problem) bool {
	spec, err := problem.Lookup(string(p))
	if err != nil {
		return false
	}
	return spec.Output == problem.OutputSet
}

// Options configures a Solve call. The zero value (and nil) means
// ModelCClique with paper-faithful defaults.
type Options = engine.Options

// Report is the unified, model-independent result of a Solve call: the
// verified coloring plus the full cost ledger of the run. Every field but
// two is a deterministic function of (instance, options) — the serving
// layer relies on this to cache and replay results byte-for-byte. The two
// exceptions are memory readings: Memory.WorkspaceWords depends on what the
// session solved before, and Memory.DeliveryScratchWords on the pool width.
type Report = engine.Report

// SolverSession is a reusable per-model solver (internal/engine.Session):
// it owns the long-lived simulator and workspace state, round buffers
// included, so solves after the first skip construction entirely. Warm
// solves are byte-identical to cold ones. Sessions are not safe for
// concurrent use — pin one per goroutine (the serving layer pins one per
// worker) or rely on Solve. A session keeps its simulators' goroutines
// parked between solves; call Release when retiring it.
type SolverSession = engine.Session

// NewSolverSession returns an empty session for the model; the first Solve
// sizes it.
func NewSolverSession(model Model) (*SolverSession, error) { return engine.NewSession(model) }

// Solve is the problem-keyed entry point: it runs the selected model's
// algorithm for the selected registry problem (Options.Problem; coloring by
// default) and returns a verified solution with full cost accounting. It
// parks one idle session per model between calls — repeated calls reuse a
// warm solver session (simulators, workspaces, derandomization buffers)
// with results byte-identical to fresh-session solves, and a parked
// session holds no goroutines. A session whose solve failed or reported
// more than 128 MiB of workspace is not parked. It is the single entry
// point of the package, and the one the serving layer (internal/server)
// drives.
func Solve(inst *Instance, opts *Options) (*Report, error) {
	return engine.Solve(inst, opts)
}

// CanonicalWords returns the canonical word encoding of an instance — the
// stream the serving layer fingerprints for its content-addressed cache.
func CanonicalWords(inst *Instance) []uint64 {
	return graph.AppendInstanceWords(nil, inst)
}
