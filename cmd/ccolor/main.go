// ccolor colors a generated graph end-to-end with the paper's algorithms
// and reports model-level statistics.
//
// Usage examples:
//
//	ccolor -family gnp -n 1000 -p 0.05                 # (Δ+1)-coloring, congested clique
//	ccolor -family regular -n 2048 -d 32 -list         # (Δ+1)-list coloring
//	ccolor -family powerlaw -n 4096 -d 4 -model lowspace  # (deg+1)-list, low-space MPC
//	ccolor -family grid -n 900 -model mpc              # linear-space MPC
//
// Registry scenarios and the cross-model differential report:
//
//	ccolor -scenario ring-of-cliques -n 512            # canonical registry instance
//	ccolor -scenario rmat -n 512 -model all            # all three backends + agreement report
//
// Other registry problems run through the same session machinery:
//
//	ccolor -problem mis -n 1000 -p 0.05                # maximal independent set
//	ccolor -problem rulingset -beta 3 -model all       # (2,3)-ruling set + agreement report
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ccolor"
	"ccolor/internal/graph"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccolor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family   = flag.String("family", "gnp", "graph family: gnp|regular|powerlaw|grid|cycle|complete|bipartite")
		scenName = flag.String("scenario", "", "registry scenario ("+strings.Join(scenario.Names(), "|")+"); overrides -family/-p/-d/-list")
		n        = flag.Int("n", 1000, "number of nodes")
		d        = flag.Int("d", 16, "degree parameter (regular/powerlaw)")
		p        = flag.Float64("p", 0.02, "edge probability (gnp)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		list     = flag.Bool("list", false, "use random (Δ+1)-list palettes instead of {1..Δ+1}")
		model    = flag.String("model", "clique", "execution model: clique|mpc|lowspace|all (all runs every backend into one agreement report)")
		probName = flag.String("problem", "", "registry problem: coloring|mis|rulingset (default coloring)")
		beta     = flag.Int("beta", 0, "ruling-set domination radius (0 = registry default 2; rulingset only)")
		file     = flag.String("file", "", "read the graph from an edge-list file instead of generating (format: first line n, then 'u v' lines)")
		dotOut   = flag.String("dot", "", "write the colored graph in Graphviz DOT format to this file")
		verbose  = flag.Bool("v", false, "print each coloring solve's trace (per-depth recursion, or low-space rounds)")
	)
	flag.Parse()

	if *scenName != "" && *file != "" {
		return fmt.Errorf("-scenario and -file are mutually exclusive")
	}
	prob, err := ccolor.ParseProblem(*probName)
	if err != nil {
		return err
	}
	if *beta != 0 && prob != ccolor.ProblemRulingSet {
		return fmt.Errorf("-beta applies only to -problem rulingset")
	}
	var models []ccolor.Model
	switch *model {
	case "all":
		models = []ccolor.Model{ccolor.ModelCClique, ccolor.ModelMPC, ccolor.ModelLowSpace}
	case "clique", string(ccolor.ModelCClique):
		models = []ccolor.Model{ccolor.ModelCClique}
	case string(ccolor.ModelMPC):
		models = []ccolor.Model{ccolor.ModelMPC}
	case string(ccolor.ModelLowSpace):
		models = []ccolor.Model{ccolor.ModelLowSpace}
	default:
		return fmt.Errorf("unknown model %q (want clique, mpc, lowspace, or all)", *model)
	}

	// The instance comes from the registry with -scenario, and from -file
	// or -family otherwise: -model lowspace colors a (deg+1)-list instance,
	// -list draws (Δ+1)-list palettes, and the default is {1..Δ+1}.
	var inst *graph.Instance
	label := *family
	if *scenName != "" {
		spec, err := scenario.Lookup(*scenName)
		if err != nil {
			return err
		}
		if inst, err = spec.Instance(*n, *seed); err != nil {
			return err
		}
		label = spec.Name
		fmt.Printf("scenario: %s (%s; %s)\n", spec.Name, spec.Family, spec.Params)
		fmt.Printf("stress: %s\n", spec.Stress)
	} else {
		g, err := legacyGraph(*file, *family, *n, *d, *p, *seed)
		if err != nil {
			return err
		}
		if *file != "" {
			label = *file
		}
		universe := int64(g.N()) * int64(g.N())
		switch {
		case *model == string(ccolor.ModelLowSpace) && prob == ccolor.ProblemColoring:
			inst, err = graph.DegPlus1Instance(g, universe, *seed)
		case *list:
			inst, err = graph.ListInstance(g, universe, *seed)
		default:
			inst = graph.DeltaPlus1Instance(g)
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("graph: %s n=%d m=%d Δ=%d\n", label, inst.G.N(), inst.G.M(), inst.G.MaxDegree())

	if ccolor.ProblemNeedsSet(prob) {
		return runSetProblem(inst, models, prob, *beta, *dotOut)
	}
	return runColoring(inst, models, *dotOut, *verbose)
}

// legacyGraph builds the input graph from the pre-registry flags: an
// edge-list file when path is set, a generated family otherwise.
func legacyGraph(path, family string, n, d int, p float64, seed uint64) (*graph.Graph, error) {
	if path == "" {
		return makeGraph(family, n, d, p, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// runColoring solves the coloring instance on each selected model through
// the Solve facade, which verifies every result, and prints the verifier's
// cross-model agreement report.
func runColoring(inst *graph.Instance, models []ccolor.Model, dotOut string, verbose bool) error {
	runs := make([]verify.ModelColoring, 0, len(models))
	var firstColoring graph.Coloring
	for _, m := range models {
		// Solve goes through the pooled session facade: every model's solve
		// checks a warm solver session out of the package-level pool, so
		// -model all (and any repeated solving in one process) pays
		// simulator/workspace construction at most once per model. Warm
		// results are byte-identical to cold, so the agreement report is
		// unaffected.
		rep, err := ccolor.Solve(inst, &ccolor.Options{Model: m})
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		fmt.Printf("%-9s rounds=%d words=%d max-load=%d colors=%d",
			m, rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad, rep.ColorsUsed)
		if rep.Machines > 0 {
			fmt.Printf(" machines=%d peak-space=%d", rep.Machines, rep.PeakSpace)
		}
		fmt.Println()
		if verbose && rep.Trace != nil {
			fmt.Println(rep.Trace)
		}
		if verbose && rep.LowTrace != nil {
			tr := rep.LowTrace
			fmt.Printf("𝔰=%d τ=%d levels=%d rounds: partition=%d MIS=%d (phases=%d); pool=%d bad=%d\n",
				tr.SpaceWords, tr.Tau, tr.Levels, tr.PartitionRounds, tr.MISRounds, tr.MISPhases, tr.PoolNodes, tr.BadNodes)
		}
		runs = append(runs, verify.ModelColoring{Model: string(m), Coloring: rep.Coloring})
		if firstColoring == nil {
			firstColoring = rep.Coloring
		}
	}
	a := verify.CrossModel(inst, runs)
	fmt.Print(a)
	if !a.Clean() {
		return fmt.Errorf("verification failed on %d model(s)", len(a.Failures))
	}
	return maybeDOT(dotOut, inst.G, firstColoring)
}

// runSetProblem solves a set-shaped registry problem (mis, rulingset) on
// each selected model and prints the cross-model set-agreement report. With
// -dot, set membership is rendered as a two-color DOT graph.
func runSetProblem(inst *graph.Instance, models []ccolor.Model, prob ccolor.Problem, beta int, dotOut string) error {
	runs := make([]verify.ModelSet, 0, len(models))
	var firstSet []bool
	effBeta := 0
	for _, m := range models {
		rep, err := ccolor.Solve(inst, &ccolor.Options{Model: m, Problem: prob, Beta: beta})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", prob, m, err)
		}
		fmt.Printf("%-9s rounds=%d words=%d max-load=%d |set|=%d",
			m, rep.Rounds, rep.WordsMoved, rep.MaxNodeLoad, rep.SetSize)
		if rep.Beta > 0 {
			fmt.Printf(" β=%d", rep.Beta)
		}
		if rep.Machines > 0 {
			fmt.Printf(" machines=%d peak-space=%d", rep.Machines, rep.PeakSpace)
		}
		fmt.Println()
		runs = append(runs, verify.ModelSet{Model: string(m), Set: rep.Set})
		if firstSet == nil {
			firstSet = rep.Set
		}
		effBeta = rep.Beta
	}
	check := verify.MIS
	if prob == ccolor.ProblemRulingSet {
		b := effBeta
		check = func(g *graph.Graph, set []bool) error { return verify.RulingSet(g, set, b) }
	}
	a := verify.CrossModelSets(inst, runs, check)
	fmt.Print(a)
	if !a.Clean() {
		return fmt.Errorf("verification failed on %d model(s)", len(a.Failures))
	}
	if dotOut == "" {
		return nil
	}
	// Membership as a 2-coloring: set members color 1, the rest color 2.
	col := make(graph.Coloring, inst.G.N())
	for v := range col {
		col[v] = 2
		if firstSet[v] {
			col[v] = 1
		}
	}
	return maybeDOT(dotOut, inst.G, col)
}

// maybeDOT writes the colored graph as Graphviz DOT when path is set.
func maybeDOT(path string, g *graph.Graph, col graph.Coloring) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.WriteDOT(f, g, col); err != nil {
		return err
	}
	fmt.Printf("wrote DOT to %s\n", path)
	return nil
}

func makeGraph(family string, n, d int, p float64, seed uint64) (*graph.Graph, error) {
	switch family {
	case "gnp":
		return graph.GNP(n, p, seed)
	case "regular":
		if (n*d)%2 != 0 {
			d++
		}
		return graph.RandomRegular(n, d, seed)
	case "powerlaw":
		return graph.PowerLaw(n, d, seed)
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	case "cycle":
		return graph.Cycle(n)
	case "complete":
		return graph.Complete(n)
	case "bipartite":
		return graph.CompleteBipartite(n/2, n-n/2)
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}
