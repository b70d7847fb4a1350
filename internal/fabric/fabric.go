// Package fabric defines the synchronous communication substrate shared by
// ccolor's two execution models: the CONGESTED CLIQUE (internal/cclique) and
// MPC (internal/mpc). The core coloring algorithm and its communication
// primitives are written once against this interface, mirroring the paper's
// §1.2 observation that CONGESTED CLIQUE is the linear-space MPC instance of
// the same algorithm.
package fabric

import (
	"fmt"
	"sort"

	"ccolor/internal/telemetry"
)

// Msg is one message in a synchronous round: Words is the payload, counted
// in O(log 𝔫)-bit machine words against the model's bandwidth/space budget.
type Msg struct {
	To    int
	From  int // filled in by the fabric on delivery
	Words []uint64
}

// Fabric is a synchronous message-passing substrate with w workers.
//
// Round executes one synchronous round: produce is invoked (possibly
// concurrently) for every worker and returns that worker's outgoing
// messages; the fabric validates them against the model's limits and
// returns per-worker inboxes, sorted by sender. Implementations must charge
// exactly one round per Round call.
//
// Lifetime contract: the returned inboxes (including every Msg.Words) may
// alias pooled arenas and are only valid until the next Round/FrameRound
// call on the same fabric. Callers that need message data across rounds
// must copy it out before issuing the next round.
type Fabric interface {
	// Workers returns the number of computational entities (nodes in the
	// congested clique, machines in MPC).
	Workers() int
	// Round runs one synchronous communication round.
	Round(produce func(w int) []Msg) ([][]Msg, error)
	// Ledger returns the round/traffic accounting for this fabric.
	Ledger() *Ledger
}

// PhaseStats is one phase's accumulated traffic profile: rounds executed,
// words moved, and the peak per-worker single-round loads while the phase
// label was active.
type PhaseStats struct {
	Rounds  int
	Words   int64
	MaxSend int64
	MaxRecv int64
}

// Ledger tracks rounds and traffic. Labels attribute rounds (and their
// words/loads) to algorithm phases for the experiment reports, and an
// optionally attached telemetry.Recorder sees every phase transition and
// round as it happens. The recorder is a concrete pointer, not an
// interface: with none attached the per-round cost is one nil check.
type Ledger struct {
	rounds      int
	wordsMoved  int64
	maxSendLoad int64 // max words sent by one worker in one round
	maxRecvLoad int64 // max words received by one worker in one round
	peakRound   int64 // max total words moved in one round
	peakScratch int64 // max delivery scratch words one round used
	byLabel     map[string]*PhaseStats
	cur         *PhaseStats // byLabel[label]; nil while unlabeled
	label       string
	rec         *telemetry.Recorder
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byLabel: make(map[string]*PhaseStats)}
}

// SetPhase labels subsequent rounds for attribution in reports.
func (l *Ledger) SetPhase(label string) {
	l.label = label
	if label == "" {
		l.cur = nil
	} else {
		ps := l.byLabel[label]
		if ps == nil {
			ps = &PhaseStats{}
			l.byLabel[label] = ps
		}
		l.cur = ps
	}
	l.rec.Transition(label)
}

// SetRecorder attaches (or, with nil, detaches) a per-solve trace recorder.
// The current phase label is replayed into it so a mid-phase attachment
// attributes correctly.
func (l *Ledger) SetRecorder(rec *telemetry.Recorder) {
	l.rec = rec
	if rec != nil && l.label != "" {
		rec.Transition(l.label)
	}
}

// Recorder returns the attached trace recorder (nil when tracing is off).
func (l *Ledger) Recorder() *telemetry.Recorder { return l.rec }

// SetDepth tags subsequent rounds with a recursion depth in the attached
// recorder; a no-op without one.
func (l *Ledger) SetDepth(d int) { l.rec.SetDepth(d) }

// Reset clears all counters and phase attribution, returning the ledger to
// its initial state, and detaches any trace recorder. Fabrics that are
// recycled across solves (for example mpc.Cluster.Reset) use it so each
// solve starts from a zero ledger. Per-phase entries are zeroed in place
// rather than dropped, so recycled ledgers relabel without reallocating.
func (l *Ledger) Reset() {
	l.rounds = 0
	l.wordsMoved = 0
	l.maxSendLoad = 0
	l.maxRecvLoad = 0
	l.peakRound = 0
	l.peakScratch = 0
	l.label = ""
	l.cur = nil
	l.rec = nil
	for _, ps := range l.byLabel {
		*ps = PhaseStats{}
	}
}

// Phase returns the current phase label.
func (l *Ledger) Phase() string { return l.label }

// AddRound records one executed round with the given traffic profile.
func (l *Ledger) AddRound(words, maxSend, maxRecv int64) {
	l.rounds++
	l.wordsMoved += words
	if words > l.peakRound {
		l.peakRound = words
	}
	if maxSend > l.maxSendLoad {
		l.maxSendLoad = maxSend
	}
	if maxRecv > l.maxRecvLoad {
		l.maxRecvLoad = maxRecv
	}
	if ps := l.cur; ps != nil {
		ps.Rounds++
		ps.Words += words
		if maxSend > ps.MaxSend {
			ps.MaxSend = maxSend
		}
		if maxRecv > ps.MaxRecv {
			ps.MaxRecv = maxRecv
		}
	}
	if l.rec != nil {
		l.rec.Observe(words, maxSend, maxRecv)
	}
}

// Rounds returns the total number of rounds executed.
func (l *Ledger) Rounds() int { return l.rounds }

// WordsMoved returns the total words moved across all rounds.
func (l *Ledger) WordsMoved() int64 { return l.wordsMoved }

// MaxSendLoad returns the maximum words sent by a single worker in any one
// round (the congested clique requires this to be O(𝔫)).
func (l *Ledger) MaxSendLoad() int64 { return l.maxSendLoad }

// MaxRecvLoad returns the maximum words received by a single worker in any
// one round.
func (l *Ledger) MaxRecvLoad() int64 { return l.maxRecvLoad }

// PeakRoundWords returns the largest total word volume any single round
// moved — the fabric layer's peak live-traffic footprint.
func (l *Ledger) PeakRoundWords() int64 { return l.peakRound }

// ObserveScratch records the delivery scratch one round used
// (RoundStats.ScratchWords); backends call it next to AddRound.
func (l *Ledger) ObserveScratch(words int64) { l.peakScratch = max(l.peakScratch, words) }

// PeakScratchWords returns the largest delivery scratch, in words, any
// single round used: sender-block rows, locators and the Msg slab.
func (l *Ledger) PeakScratchWords() int64 { return l.peakScratch }

// ByPhase returns a copy of the per-phase round counts. Phases that ran no
// rounds (including entries zeroed by Reset) are omitted.
func (l *Ledger) ByPhase() map[string]int {
	out := make(map[string]int, len(l.byLabel))
	for k, ps := range l.byLabel {
		if ps.Rounds > 0 {
			out[k] = ps.Rounds
		}
	}
	return out
}

// VisitPhases calls fn for every phase that ran at least one round —
// PhaseProfile without the copy, for callers that fold many ledger
// incarnations into one accumulator. Iteration order is unspecified.
func (l *Ledger) VisitPhases(fn func(label string, ps PhaseStats)) {
	for k, ps := range l.byLabel {
		if ps.Rounds > 0 {
			fn(k, *ps)
		}
	}
}

// PhaseProfile returns a copy of the full per-phase traffic statistics
// (rounds, words, peak loads). Phases that ran no rounds are omitted.
func (l *Ledger) PhaseProfile() map[string]PhaseStats {
	out := make(map[string]PhaseStats, len(l.byLabel))
	for k, ps := range l.byLabel {
		if ps.Rounds > 0 {
			out[k] = *ps
		}
	}
	return out
}

// String renders a compact multi-line summary.
func (l *Ledger) String() string {
	keys := make([]string, 0, len(l.byLabel))
	for k, ps := range l.byLabel {
		if ps.Rounds > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s := fmt.Sprintf("rounds=%d words=%d maxSend/round=%d maxRecv/round=%d",
		l.rounds, l.wordsMoved, l.maxSendLoad, l.maxRecvLoad)
	for _, k := range keys {
		ps := l.byLabel[k]
		s += fmt.Sprintf("\n  %-24s rounds=%-5d words=%-10d maxSend=%-8d maxRecv=%d",
			k, ps.Rounds, ps.Words, ps.MaxSend, ps.MaxRecv)
	}
	return s
}

// SortInbox orders messages by sender then payload for deterministic
// processing; fabrics call it before delivery.
func SortInbox(in []Msg) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].From != in[j].From {
			return in[i].From < in[j].From
		}
		return lessWords(in[i].Words, in[j].Words)
	})
}

func lessWords(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
