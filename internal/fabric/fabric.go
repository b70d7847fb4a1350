// Package fabric defines the synchronous communication substrate shared by
// ccolor's two execution models: the CONGESTED CLIQUE (internal/cclique) and
// MPC (internal/mpc). The core coloring algorithm and its communication
// primitives are written once against this interface, mirroring the paper's
// §1.2 observation that CONGESTED CLIQUE is the linear-space MPC instance of
// the same algorithm.
//
// Every round has one shape: workers stage frames, the fabric validates and
// charges them, and the receivers take, sum or store what was sent. No round
// builds inboxes; the paper's §2.1 broadcasts are charge-only rounds, its
// Lemma 2.1 aggregations combining or placing rounds, and the rank-based
// gather (Cor. 3.10, Lemma 3.14) placing rounds.
package fabric

import "ccolor/internal/telemetry"

// Msg is one frame as a sender staged it: Words is the payload, counted in
// O(log 𝔫)-bit machine words against the model's bandwidth/space budget.
// FrameRound's result type carries it; tests read staged and placed frames
// as Msgs.
type Msg struct {
	To    int
	From  int
	Words []uint64
}

// Fabric is a synchronous message-passing substrate with w workers.
//
// FrameRound executes one synchronous round: stage is invoked (possibly
// concurrently) once per worker to write that worker's outgoing frames
// into its SendBuf, and the fabric validates them against the model's
// limits and charges them to its ledger. What delivery does with the
// frames is the pending Sink: a one-shot request that SetSink makes for
// the next FrameRound, which consumes it even when the round fails (a
// backend reset drops a pending one). With no request the round is
// charge-only. Implementations charge exactly one round per FrameRound
// call and return nil inboxes; the result keeps its type so that wrappers
// embedding a backend (round taps) keep compiling.
//
// The request rides on the ordinary FrameRound rather than a method of its
// own, so a wrapper that embeds a backend and intercepts FrameRound (to time
// or count rounds) still sees every round. SendFrames, SumFrames and
// PlaceFrames are the intended callers.
type Fabric interface {
	// Workers returns the number of computational entities (nodes in the
	// congested clique, virtual workers hosted on machines in MPC).
	Workers() int
	// Ledger returns the round/traffic accounting for this fabric.
	Ledger() *Ledger
	// FrameRound runs one synchronous round staged as flat frames.
	FrameRound(stage func(w int, sb *SendBuf)) ([][]Msg, error)
	// SetSink sets what the next round does with its frames.
	SetSink(s Sink)
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
// single round used: the sender blocks' destination and group rows and
// combining accumulators.
func (l *Ledger) PeakScratchWords() int64 { return l.peakScratch }

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
