package fabric

import (
	"testing"

	"ccolor/internal/telemetry"
)

func TestLedgerPhaseProfile(t *testing.T) {
	l := NewLedger()
	l.SetPhase("partition")
	l.AddRound(20, 8, 12)
	l.AddRound(30, 9, 9)
	l.SetPhase("collect")
	l.AddRound(40, 40, 7)
	l.SetPhase("idle") // labeled but no rounds: filtered from views

	prof := l.PhaseProfile()
	if len(prof) != 2 {
		t.Fatalf("PhaseProfile has %d entries, want 2 (idle filtered): %v", len(prof), prof)
	}
	p := prof["partition"]
	if p.Rounds != 2 || p.Words != 50 || p.MaxSend != 9 || p.MaxRecv != 12 {
		t.Fatalf("partition stats = %+v", p)
	}
	c := prof["collect"]
	if c.Rounds != 1 || c.Words != 40 || c.MaxSend != 40 || c.MaxRecv != 7 {
		t.Fatalf("collect stats = %+v", c)
	}

	// PhaseProfile returns a copy.
	prof["collect"] = PhaseStats{Rounds: 99}
	if l.PhaseProfile()["collect"].Rounds != 1 {
		t.Fatal("PhaseProfile exposed internal state")
	}

	// VisitPhases walks the same filtered view without copying.
	seen := map[string]PhaseStats{}
	l.VisitPhases(func(label string, ps PhaseStats) { seen[label] = ps })
	if len(seen) != 2 || seen["partition"].Words != 50 {
		t.Fatalf("VisitPhases saw %v", seen)
	}
}

func TestLedgerResetClearsPhaseStatsAndRecorder(t *testing.T) {
	l := NewLedger()
	rec := telemetry.NewRecorder()
	l.SetRecorder(rec)
	l.SetPhase("partition")
	l.AddRound(20, 8, 12)
	l.Reset()
	if l.Recorder() != nil {
		t.Fatal("Reset did not detach the recorder")
	}
	if len(l.PhaseProfile()) != 0 {
		t.Fatalf("Reset left phase stats: %v", l.PhaseProfile())
	}
	if l.Rounds() != 0 || l.WordsMoved() != 0 {
		t.Fatal("Reset left totals")
	}
	// Reuse after Reset: stats accumulate fresh, not on stale counters.
	l.SetPhase("partition")
	l.AddRound(5, 1, 1)
	if p := l.PhaseProfile()["partition"]; p.Rounds != 1 || p.Words != 5 {
		t.Fatalf("post-Reset partition stats = %+v", p)
	}
}

func TestLedgerForwardsToRecorder(t *testing.T) {
	l := NewLedger()
	rec := telemetry.NewRecorder()
	l.SetRecorder(rec)
	l.SetPhase("partition")
	l.SetDepth(1)
	l.AddRound(20, 8, 12)
	l.SetPhase("collect")
	l.AddRound(40, 40, 7)
	tr := rec.Finish("test")
	if tr.Rounds != l.Rounds() || tr.Words != l.WordsMoved() {
		t.Fatalf("trace totals rounds=%d words=%d, ledger %d/%d",
			tr.Rounds, tr.Words, l.Rounds(), l.WordsMoved())
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Phase != "partition" || tr.Spans[0].Depth != 1 {
		t.Fatalf("spans = %+v", tr.Spans)
	}
}

func TestLedgerSetRecorderReplaysCurrentPhase(t *testing.T) {
	l := NewLedger()
	l.SetPhase("partition")
	rec := telemetry.NewRecorder()
	l.SetRecorder(rec) // attached mid-phase: the label must carry over
	l.AddRound(10, 1, 1)
	tr := rec.Finish("test")
	if len(tr.Spans) != 1 || tr.Spans[0].Phase != "partition" {
		t.Fatalf("spans = %+v, want the replayed partition label", tr.Spans)
	}
}

func TestLedgerHotPathZeroAllocsWithNilRecorder(t *testing.T) {
	l := NewLedger()
	// Prime the labels: warm solves revisit known phases, so the per-phase
	// map entries already exist.
	l.SetPhase("partition")
	l.AddRound(1, 1, 1)
	l.SetPhase("collect")
	l.AddRound(1, 1, 1)

	allocs := testing.AllocsPerRun(200, func() {
		l.SetPhase("partition")
		l.SetDepth(1)
		l.AddRound(20, 8, 12)
		l.SetPhase("collect")
		l.SetDepth(0)
		l.AddRound(40, 40, 7)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v per run with tracing off, want 0", allocs)
	}
}
