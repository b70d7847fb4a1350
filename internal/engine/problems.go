package engine

import (
	"fmt"
	"math"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
	"ccolor/internal/graph"
	"ccolor/internal/mis"
	"ccolor/internal/mpc"
	"ccolor/internal/problem"
	"ccolor/internal/telemetry"
	"ccolor/internal/verify"
)

// This file is the set-problem half of the session: the MIS and ruling-set
// runners, and the backend arming they share. All three models present the
// same one-worker-per-node fabric to the derandomized MIS machinery —
// the clique network directly, the linear-space cluster via NewLinear, and
// the sublinear-space model via the same ≤2τ-word chunk placement the
// low-space coloring solver uses for its node data.

// setBackend is an armed fabric for a set-problem solve plus the
// MPC-family telemetry the report carries.
type setBackend struct {
	f         fabric.Fabric
	pairWords int
	machines  int
	space     int64
	sublinear int64 // ModelLowSpace's per-machine contract; zero elsewhere
	peak      func() int64
	release   func()
}

// setFabric arms the session's backend for a set-problem solve over g,
// re-dimensioning retained simulators in place (warm ≡ cold). Node weight
// is deg(v)+2 — adjacency plus membership bookkeeping; palettes play no
// role in set problems.
func (s *Session) setFabric(g *graph.Graph, o *Options) (*setBackend, error) {
	n := g.N()
	switch s.model {
	case ModelCClique:
		if s.nw == nil {
			s.nw = cclique.New(n)
		} else {
			s.nw.Reset(n)
		}
		nw := s.nw
		return &setBackend{f: nw, pairWords: nw.MsgWords(), release: nw.Release}, nil

	case ModelMPC:
		factor := o.MPCSpaceFactor
		if factor <= 0 {
			factor = 64
		}
		weight := func(v int) int64 { return int64(g.Degree(int32(v)) + 2) }
		if s.cl == nil {
			cl, err := mpc.NewLinear(n, weight, factor)
			if err != nil {
				return nil, err
			}
			s.cl = cl
		} else if err := s.cl.ResetLinear(n, weight, factor); err != nil {
			return nil, err
		}
		cl := s.cl
		return &setBackend{
			f: cl, pairWords: 8,
			machines: cl.Machines(), space: cl.Space(),
			peak: cl.PeakMachineSpace, release: cl.Release,
		}, nil

	case ModelLowSpace:
		// Sublinear space: 𝔰 = max(√𝔫, 4τ+64) words per machine with
		// τ = 𝔫^0.49, node data split into ≤2τ-word chunks packed
		// first-fit; a node's home machine is where its first chunk lands
		// (the lowspace coloring placement, minus palettes).
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
		cl := s.cl
		for mm := 0; mm < machines; mm++ {
			if err := cl.AdjustResidentMachine(mm, perMachine[mm]); err != nil {
				return nil, err
			}
		}
		return &setBackend{
			f: cl, pairWords: 8,
			machines: machines, space: space, sublinear: space,
			peak: cl.PeakMachineSpace, release: cl.Release,
		}, nil
	}
	return nil, fmt.Errorf("ccolor: unknown model %q", s.model)
}

// setReport assembles the shared Report shape of a set-problem solve: the
// set is copied out of session workspace so the report outlives the
// session, and the ledger is read before release. Set problems ignore
// palettes, so the memory budget charges only the graph's encoded words.
func (s *Session) setReport(kind problem.Kind, g *graph.Graph, bk *setBackend, set []bool, rec *telemetry.Recorder) *Report {
	led := bk.f.Ledger()
	out := make([]bool, len(set))
	size := 0
	for v, ok := range set {
		if ok {
			out[v] = true
			size++
		}
	}
	rep := &Report{
		Model:         s.model,
		Problem:       kind,
		Set:           out,
		SetSize:       size,
		Rounds:        led.Rounds(),
		WordsMoved:    led.WordsMoved(),
		MaxNodeLoad:   maxLoad(led.MaxSendLoad(), led.MaxRecvLoad()),
		RoundsByPhase: led.ByPhase(),
		PhaseProfile:  led.PhaseProfile(),
		Machines:      bk.machines,
		Space:         bk.space,
		Memory: MemoryBudget{
			InstanceWords:        graph.GraphWordCount(g),
			PeakRoundWords:       led.PeakRoundWords(),
			DeliveryScratchWords: led.PeakScratchWords(),
			MachineSpace:         bk.space,
			SublinearBound:       bk.sublinear,
		},
		Telemetry: rec.Finish(string(s.model)),
	}
	if bk.peak != nil {
		rep.PeakSpace = bk.peak()
		rep.Memory.PeakMachineWords = rep.PeakSpace
	}
	return rep
}

// misRunner solves the MIS problem on the session's backend.
type misRunner struct{ s *Session }

func (r *misRunner) Kind() problem.Kind { return problem.MIS }

func (r *misRunner) Solve(inst *graph.Instance, _ problem.Params) (*problem.Solution, error) {
	rep, err := r.run(inst, &Options{})
	if err != nil {
		return nil, err
	}
	return &problem.Solution{Set: rep.Set}, nil
}

func (r *misRunner) run(inst *graph.Instance, o *Options) (*Report, error) {
	s := r.s
	mp := mis.DefaultParams()
	if o.MIS != nil {
		mp = *o.MIS
	}
	bk, err := s.setFabric(inst.G, o)
	if err != nil {
		return nil, err
	}
	defer bk.release() // return round arenas to the shared pool
	rec := s.arm(bk.f.Ledger(), o)
	set, _, err := mis.SolveDetSubset(bk.f, bk.pairWords, inst.G, nil, mp, &s.misWS)
	if err != nil {
		return nil, err
	}
	if err := verify.MIS(inst.G, set); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	return s.setReport(problem.MIS, inst.G, bk, set, rec), nil
}

// rulingRunner solves the (2,β)-ruling set problem on the session's
// backend.
type rulingRunner struct{ s *Session }

func (r *rulingRunner) Kind() problem.Kind { return problem.RulingSet }

func (r *rulingRunner) Solve(inst *graph.Instance, p problem.Params) (*problem.Solution, error) {
	rep, err := r.run(inst, &Options{Beta: p.Beta})
	if err != nil {
		return nil, err
	}
	return &problem.Solution{Set: rep.Set, Beta: rep.Beta}, nil
}

func (r *rulingRunner) run(inst *graph.Instance, o *Options) (*Report, error) {
	s := r.s
	rp := mis.DefaultRulingParams()
	if o.Beta > 0 {
		rp.Beta = o.Beta
	}
	if o.MIS != nil {
		rp.MIS = *o.MIS
	}
	bk, err := s.setFabric(inst.G, o)
	if err != nil {
		return nil, err
	}
	defer bk.release() // return round arenas to the shared pool
	rec := s.arm(bk.f.Ledger(), o)
	set, _, err := mis.SolveRuling(bk.f, bk.pairWords, inst.G, rp, &s.rsWS)
	if err != nil {
		return nil, err
	}
	if err := verify.RulingSet(inst.G, set, rp.Beta); err != nil {
		return nil, fmt.Errorf("ccolor: internal verification failed: %w", err)
	}
	rep := s.setReport(problem.RulingSet, inst.G, bk, set, rec)
	rep.Beta = rp.Beta
	return rep, nil
}
