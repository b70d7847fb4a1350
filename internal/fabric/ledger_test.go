package fabric

import "testing"

func TestLedgerPhaseAttribution(t *testing.T) {
	l := NewLedger()
	if l.Phase() != "" {
		t.Fatalf("fresh ledger has phase %q", l.Phase())
	}
	l.AddRound(10, 5, 5) // unlabeled: counted in totals, not in any phase
	l.SetPhase("partition")
	l.AddRound(20, 8, 12)
	l.AddRound(30, 9, 9)
	l.SetPhase("collect")
	l.AddRound(40, 40, 7)
	if l.Phase() != "collect" {
		t.Fatalf("phase %q, want collect", l.Phase())
	}
	if l.Rounds() != 4 || l.WordsMoved() != 100 {
		t.Fatalf("rounds=%d words=%d, want 4/100", l.Rounds(), l.WordsMoved())
	}
	if l.MaxSendLoad() != 40 || l.MaxRecvLoad() != 12 {
		t.Fatalf("maxSend=%d maxRecv=%d, want 40/12", l.MaxSendLoad(), l.MaxRecvLoad())
	}
	prof := l.PhaseProfile()
	if prof["partition"].Rounds != 2 || prof["collect"].Rounds != 1 || len(prof) != 2 {
		t.Fatalf("PhaseProfile = %v, want partition:2 collect:1 rounds", prof)
	}
}
