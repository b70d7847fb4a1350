package engine

import (
	"fmt"
	"math"

	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/mis"
	"ccolor/internal/mpc"
	"ccolor/internal/problem"
)

// solveSet runs a set problem (MIS or a (2,β)-ruling set) on the session's
// backend. All three models present the same one-worker-per-node fabric to
// the derandomized MIS machinery: the clique network directly, the
// linear-space cluster with node weight deg(v)+2 — adjacency plus
// membership bookkeeping; palettes play no role in set problems — and the
// sublinear-space model through placeLowSpace. The set is copied out of
// session workspace so the report outlives the session, and the memory
// budget charges only the graph's encoded words.
func (s *Session) solveSet(spec *problem.Spec, inst *graph.Instance, o *Options) (*Report, error) {
	g := inst.G
	var (
		f         fabric.Fabric
		pairWords = 8
		err       error
	)
	if s.model == ModelLowSpace {
		f, err = s.placeLowSpace(g)
	} else {
		f, pairWords, err = s.armFabric(g.N(), func(v int) int64 { return int64(g.Degree(int32(v)) + 2) }, o)
	}
	if err != nil {
		return nil, err
	}
	rec := traceLedger(f.Ledger(), o)
	var (
		set  []bool
		beta int
	)
	switch spec.Kind {
	case problem.MIS:
		mp := mis.DefaultParams()
		if o.MIS != nil {
			mp = *o.MIS
		}
		set, _, err = mis.SolveDetSubset(f, pairWords, g, nil, mp, &s.misWS)
	case problem.RulingSet:
		rp := mis.DefaultRulingParams()
		if o.Beta > 0 {
			rp.Beta = o.Beta
		}
		if o.MIS != nil {
			rp.MIS = *o.MIS
		}
		beta = rp.Beta
		set, _, err = mis.SolveRuling(f, pairWords, g, rp, &s.rsWS)
	}
	if err != nil {
		return nil, err
	}
	if err := spec.Check(inst, &problem.Solution{Set: set, Beta: beta}); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	rep := s.fabricReport(spec.Kind, f, rec)
	rep.Set = make([]bool, len(set))
	for v, in := range set {
		if in {
			rep.Set[v] = true
			rep.SetSize++
		}
	}
	rep.Beta = beta
	rep.Memory.InstanceWords = graph.GraphWordCount(g)
	if s.model == ModelLowSpace {
		rep.Memory.SublinearBound = rep.Space
	}
	return rep, nil
}

// placeLowSpace arms the session's cluster for a sublinear-space set solve
// over g: 𝔰 = max(√𝔫, 4τ+64) words per machine with τ = 𝔫^0.49, node data
// of deg(v)+2 words split into ≤2τ-word chunks packed first-fit; a node's
// home machine is where its first chunk lands (the lowspace coloring
// placement, minus palettes).
func (s *Session) placeLowSpace(g *graph.Graph) (*mpc.Cluster, error) {
	n := g.N()
	tau := int(math.Ceil(math.Pow(float64(n), 0.49)))
	if tau < 2 {
		tau = 2
	}
	space := int64(math.Ceil(math.Sqrt(float64(n))))
	if floor := int64(4*tau + 64); space < floor {
		space = floor
	}
	assign := s.setAssign[:0]
	perMachine := append(s.setMachine[:0], 0)
	m := 0
	for v := 0; v < n; v++ {
		w := int64(g.Degree(int32(v)) + 2)
		first := true
		for rem := w; rem > 0; {
			chunk := int64(2 * tau)
			if chunk > rem {
				chunk = rem
			}
			if perMachine[m]+chunk > space {
				m++
				perMachine = append(perMachine, 0)
			}
			if first {
				assign = append(assign, m)
				first = false
			}
			perMachine[m] += chunk
			rem -= chunk
		}
	}
	s.setAssign, s.setMachine = assign, perMachine
	machines := m + 1
	if s.cl == nil {
		cl, err := mpc.New(assign, machines, space)
		if err != nil {
			return nil, err
		}
		s.cl = cl
	} else if err := s.cl.Reset(assign, machines, space); err != nil {
		return nil, err
	}
	for mm := 0; mm < machines; mm++ {
		if err := s.cl.AdjustResidentMachine(mm, perMachine[mm]); err != nil {
			return nil, err
		}
	}
	return s.cl, nil
}
