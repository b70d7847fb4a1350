package engine

import (
	"testing"

	"ccolor/internal/graph"
)

func idleSession(model Model) *Session {
	idle.Lock()
	defer idle.Unlock()
	return idle.sessions[model]
}

// TestFacadeParksOnlyHealthySessions: a facade solve parks its session for
// the next call unless the solve failed or reported more workspace than
// the idle cap; either of those leaves no idle session behind.
func TestFacadeParksOnlyHealthySessions(t *testing.T) {
	g, err := graph.GNP(32, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	good := graph.DeltaPlus1Instance(g)
	// A (deg+1)-list instance violates ColorReduce's (Δ+1)-list premise.
	bad, err := graph.DegPlus1Instance(g, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}

	idle.Lock()
	delete(idle.sessions, ModelCClique) // earlier tests may have parked one
	idle.Unlock()
	rep, err := Solve(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := idleSession(ModelCClique)
	if s == nil || s.Solves() != 1 {
		t.Fatal("a successful solve parked no new session")
	}
	if _, err := Solve(good, nil); err != nil {
		t.Fatal(err)
	}
	if got := idleSession(ModelCClique); got != s || s.Solves() != 2 {
		t.Fatalf("second solve parked %p after %d solves, want the warm %p after 2", got, s.Solves(), s)
	}

	if _, err := Solve(bad, nil); err == nil {
		t.Fatal("expected the (deg+1)-list instance to be rejected")
	}
	if got := idleSession(ModelCClique); got != nil {
		t.Fatal("a failed solve left an idle session")
	}

	// A report above the cap drops the session that produced it.
	if _, err := Solve(good, nil); err != nil {
		t.Fatal(err)
	}
	s = idleSession(ModelCClique)
	idle.Lock()
	delete(idle.sessions, ModelCClique)
	idle.Unlock()
	rep.Memory.WorkspaceWords = maxIdleWords + 1
	park(s, rep)
	if got := idleSession(ModelCClique); got != nil {
		t.Fatalf("a session reporting %d workspace words was parked", rep.Memory.WorkspaceWords)
	}
	rep.Memory.WorkspaceWords = maxIdleWords
	park(s, rep)
	if got := idleSession(ModelCClique); got != s {
		t.Fatal("a session at the cap was not parked")
	}
}
