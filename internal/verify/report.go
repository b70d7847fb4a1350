package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ccolor/internal/graph"
	"ccolor/internal/hashing"
)

// This file is the differential half of the oracle: instance-shape checks,
// the bound checks implied by an instance's palette discipline, and the
// cross-model agreement report the property/fuzz harness and cmd/ccolor's
// `-model all` mode print. The paper's claim is that one deterministic
// procedure solves the same problem in three models; Agreement is the
// artifact that pins that down per instance.

// ErrBadInstance reports a malformed instance (unsorted/duplicated palette
// or a palette not exceeding the node's degree).
var ErrBadInstance = errors.New("verify: malformed instance")

// ErrOutOfBounds reports a color outside the bound implied by the
// instance's palette discipline (e.g. > Δ+1 on a {1..Δ+1} instance).
var ErrOutOfBounds = errors.New("verify: color outside problem bound")

// CheckInstance validates the instance itself: one palette per node, each
// sorted strictly ascending (distinct colors), and p(v) > d(v) — the
// solvability invariant every theorem assumes (paper Cor. 3.3(iii)).
func CheckInstance(inst *graph.Instance) error {
	if inst == nil || inst.G == nil {
		return fmt.Errorf("%w: nil instance or graph", ErrBadInstance)
	}
	if len(inst.Palettes) != inst.G.N() {
		return fmt.Errorf("%w: %d palettes for %d nodes",
			ErrBadInstance, len(inst.Palettes), inst.G.N())
	}
	for v := 0; v < inst.G.N(); v++ {
		p := inst.Palettes[v]
		for i := 1; i < len(p); i++ {
			if p[i] <= p[i-1] {
				return fmt.Errorf("%w: node %d palette not sorted-distinct at %d",
					ErrBadInstance, v, i)
			}
		}
		if len(p) <= inst.G.Degree(int32(v)) {
			return fmt.Errorf("%w: node %d palette %d ≤ degree %d",
				ErrBadInstance, v, len(p), inst.G.Degree(int32(v)))
		}
	}
	return nil
}

// IsDeltaPlus1 reports whether every palette is exactly {1..Δ+1} — the
// classic (Δ+1)-coloring problem, for which the Δ+1 color bound applies.
func IsDeltaPlus1(inst *graph.Instance) bool {
	delta := inst.G.MaxDegree()
	for _, p := range inst.Palettes {
		if len(p) != delta+1 || p[0] != 1 || p[len(p)-1] != graph.Color(delta+1) {
			return false
		}
	}
	return true
}

// Full is the complete oracle: instance well-formedness, completeness,
// properness over all edges, palette membership, and — when the palette
// discipline implies one — the explicit color bound. The bound checks are
// deliberately redundant with palette membership: they re-derive the claim
// from the graph alone, so a palette-construction bug cannot mask a solver
// bug.
func Full(inst *graph.Instance, c graph.Coloring) error {
	if err := CheckInstance(inst); err != nil {
		return err
	}
	if err := ListColoring(inst, c); err != nil {
		return err
	}
	if IsDeltaPlus1(inst) {
		bound := graph.Color(inst.G.MaxDegree() + 1)
		for v, x := range c {
			if x < 1 || x > bound {
				return fmt.Errorf("node %d colored %d outside [1, Δ+1=%d]: %w",
					v, x, bound, ErrOutOfBounds)
			}
		}
	}
	// For (deg+1)-list instances the bound *is* membership in a palette of
	// exactly deg(v)+1 colors, which ListColoring checked, so no further
	// check exists to make.
	return nil
}

// ColoringFingerprint is the canonical 61-bit fingerprint of a color
// vector — the quantity the golden ledgers and cross-model agreement
// reports compare.
func ColoringFingerprint(c graph.Coloring) uint64 {
	words := make([]uint64, len(c))
	for i, x := range c {
		words[i] = uint64(x)
	}
	return hashing.Fingerprint(words)
}

// InstanceFingerprint fingerprints the instance's canonical wire encoding —
// the same stream the serving layer's content-addressed cache keys on. The
// encoding is folded in streamed chunks, so no full word-stream copy of a
// large instance is ever held.
func InstanceFingerprint(inst *graph.Instance) uint64 {
	s := hashing.NewStream(graph.InstanceWordCount(inst))
	graph.WriteInstanceWords(inst, func(chunk []uint64) error {
		s.Write(chunk)
		return nil
	})
	return s.Sum()
}

// ModelColoring is one backend's output on a shared instance.
type ModelColoring struct {
	Model    string
	Coloring graph.Coloring
}

// Agreement is the cross-model differential report for one instance: the
// instance's content address, each model's verification outcome and
// coloring fingerprint, and the models grouped by identical colorings.
type Agreement struct {
	// InstanceFP is the canonical-encoding fingerprint all models solved.
	InstanceFP uint64
	// ColoringFP maps model → coloring fingerprint (verified or not).
	ColoringFP map[string]uint64
	// Failures maps model → verification error; absent means clean.
	Failures map[string]error
	// Groups partitions the models by identical coloring fingerprints, in
	// first-seen input order; one group per distinct coloring.
	Groups [][]string
	// Output names the solution shape in the rendered report; empty means
	// "coloring" (CrossModelSets sets "set").
	Output string
}

// CrossModel verifies every model's coloring against the shared instance
// and reports which models agree. runs must be non-empty; model names
// should be distinct (a repeated name overwrites its map entries but still
// lands in the fingerprint groups).
func CrossModel(inst *graph.Instance, runs []ModelColoring) *Agreement {
	a := &Agreement{
		InstanceFP: InstanceFingerprint(inst),
		ColoringFP: make(map[string]uint64, len(runs)),
		Failures:   make(map[string]error),
	}
	order := make([]uint64, 0, len(runs))
	byFP := make(map[uint64][]string, len(runs))
	for _, r := range runs {
		fp := ColoringFingerprint(r.Coloring)
		a.ColoringFP[r.Model] = fp
		if err := Full(inst, r.Coloring); err != nil {
			a.Failures[r.Model] = err
		}
		if _, seen := byFP[fp]; !seen {
			order = append(order, fp)
		}
		byFP[fp] = append(byFP[fp], r.Model)
	}
	for _, fp := range order {
		a.Groups = append(a.Groups, byFP[fp])
	}
	return a
}

// Clean reports whether every model's coloring verified.
func (a *Agreement) Clean() bool { return len(a.Failures) == 0 }

// Unanimous reports whether all models produced the identical coloring.
func (a *Agreement) Unanimous() bool { return len(a.Groups) == 1 }

// String renders the report for humans (cmd/ccolor -model all).
func (a *Agreement) String() string {
	label := a.Output
	if label == "" {
		label = "coloring"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "instance %016x\n", a.InstanceFP)
	models := make([]string, 0, len(a.ColoringFP))
	for m := range a.ColoringFP {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		status := "verified ✓"
		if err, bad := a.Failures[m]; bad {
			status = "FAILED: " + err.Error()
		}
		fmt.Fprintf(&b, "  %-9s %s %016x  %s\n", m, label, a.ColoringFP[m], status)
	}
	switch {
	case !a.Clean():
		fmt.Fprintf(&b, "agreement: UNVERIFIED (%d model(s) failed)\n", len(a.Failures))
	case a.Unanimous():
		fmt.Fprintf(&b, "agreement: unanimous across %d model(s)\n", len(a.ColoringFP))
	default:
		groups := make([]string, len(a.Groups))
		for i, g := range a.Groups {
			groups[i] = "{" + strings.Join(g, ",") + "}"
		}
		fmt.Fprintf(&b, "agreement: %d distinct verified %ss: %s\n",
			len(a.Groups), label, strings.Join(groups, " "))
	}
	return b.String()
}
