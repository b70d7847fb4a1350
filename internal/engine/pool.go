package engine

import (
	"sync"

	"ccolor/internal/graph"
)

// maxIdleWords caps the workspace a parked session may retain: 1<<24
// words, 128 MiB. A session whose solve reports more is dropped instead.
const maxIdleWords = 1 << 24

// idle parks at most one session per model between facade solves, so any
// caller hammering Solve — the ccolor CLI's -model all loop, tests,
// benchmarks — runs warm without managing sessions itself. Concurrent
// callers each get their own session; the serving layer pins sessions per
// worker instead (see internal/server).
var idle = struct {
	sync.Mutex
	sessions map[Model]*Session
}{sessions: make(map[Model]*Session)}

// Solve runs one instance on the model's idle session, or on a new one
// when none is parked: the single entry point the ccolor facade wraps.
// Deterministically identical to a fresh-session solve — warm reuse
// changes allocation behavior only. The session is released after the
// solve, so a parked session holds memory but no goroutines.
func Solve(inst *graph.Instance, opts *Options) (*Report, error) {
	model := ModelCClique
	if opts != nil && opts.Model != "" {
		model = opts.Model
	}
	idle.Lock()
	s := idle.sessions[model]
	delete(idle.sessions, model)
	idle.Unlock()
	if s == nil {
		var err error
		if s, err = NewSession(model); err != nil {
			return nil, err
		}
	}
	rep, err := s.Solve(inst, opts)
	s.Release()
	if err != nil {
		// A failed solve may have died mid-round; drop the session instead
		// of parking half-built state.
		return nil, err
	}
	park(s, rep)
	return rep, nil
}

// park makes s its model's idle session, unless rep shows it retaining
// more than maxIdleWords of workspace.
func park(s *Session, rep *Report) {
	if rep.Memory.WorkspaceWords > maxIdleWords {
		return
	}
	idle.Lock()
	idle.sessions[s.model] = s
	idle.Unlock()
}
