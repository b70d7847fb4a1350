// Package cclique simulates the CONGESTED CLIQUE model (paper §1.1):
// 𝔫 nodes, synchronous rounds, and in each round every node may send
// O(log 𝔫) bits — a constant number of machine words — to every other node.
//
// The simulator executes each node's per-round program in its own goroutine
// behind a barrier, moves all inter-node data as counted messages, and
// enforces the per-ordered-pair word budget, failing loudly on violations.
package cclique

import (
	"errors"
	"fmt"
	"runtime"

	"ccolor/internal/fabric"
)

// DefaultMsgWords is the default per-ordered-pair per-round budget, in
// 64-bit words. The model allows O(log 𝔫) bits per pair per round; a small
// constant number of words is the standard reading.
const DefaultMsgWords = 4

// Network is a CONGESTED CLIQUE instance.
type Network struct {
	n        int
	msgWords int
	ledger   *fabric.Ledger
	workers  int              // goroutine pool width
	pool     *fabric.WorkPool // parked round-staging workers (lazy)

	// rb is the network's round buffer, reset by every round; a round's
	// placed payloads stay valid until the next one, as fabric.Sink
	// promises.
	rb fabric.RoundBuffer
	// sink is the pending fabric.Sink request, consumed by the next round.
	sink fabric.Sink
}

var _ fabric.Fabric = (*Network)(nil)

// Option configures a Network.
type Option func(*Network)

// WithMsgWords sets the per-ordered-pair per-round word budget.
func WithMsgWords(w int) Option {
	return func(nw *Network) { nw.msgWords = w }
}

// WithParallelism caps the number of goroutines used to execute node
// programs concurrently (defaults to GOMAXPROCS).
func WithParallelism(p int) Option {
	return func(nw *Network) { nw.workers = p }
}

// New returns a clique on n nodes.
func New(n int, opts ...Option) *Network {
	nw := &Network{
		n:        n,
		msgWords: DefaultMsgWords,
		ledger:   fabric.NewLedger(),
		workers:  runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(nw)
	}
	if nw.workers < 1 {
		nw.workers = 1
	}
	return nw
}

// Workers returns 𝔫, the number of nodes.
func (nw *Network) Workers() int { return nw.n }

// Reset re-arms the network for a new solve on n nodes: the node count is
// re-dimensioned, the ledger cleared, and any pending combining or placing
// request dropped, while the configured options (word budget, parallelism)
// and the round buffer carry over — the next round resets the buffer to
// the new width, exactly as rounds always do. This is what lets a solver
// session reuse one Network across solves instead of paying cclique.New
// per call; it mirrors mpc.Cluster.Reset.
func (nw *Network) Reset(n int) {
	nw.n = n
	nw.ledger.Reset()
	nw.sink = fabric.Sink{}
}

// Release stops the network's staging goroutines, which otherwise stay
// parked between rounds and between solves. The network keeps its round
// buffer and remains usable: the next parallel round respawns the workers.
func (nw *Network) Release() {
	if nw.pool != nil {
		nw.pool.Stop()
	}
}

// Ledger returns the round/traffic ledger.
func (nw *Network) Ledger() *fabric.Ledger { return nw.ledger }

// MsgWords returns the per-ordered-pair word budget.
func (nw *Network) MsgWords() int { return nw.msgWords }

// BandwidthError reports a violated congested-clique bandwidth constraint.
type BandwidthError struct {
	From, To int
	Words    int
	Budget   int
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("cclique: node %d sent %d words to node %d in one round (budget %d)",
		e.From, e.Words, e.To, e.Budget)
}

// SetSink implements fabric.Fabric: the next round sums or places its
// frames as s asks, and is charge-only with the zero Sink.
func (nw *Network) SetSink(s fabric.Sink) {
	nw.sink = s
}

// FrameRound executes one synchronous round staged as flat frames. Staging
// runs for every node on the network's pool; the frames are validated
// (destination in range, per-ordered-pair total ≤ MsgWords), charged, and
// summed or placed as the pending Sink asks. It returns nil inboxes.
func (nw *Network) FrameRound(stage func(w int, sb *fabric.SendBuf)) ([][]fabric.Msg, error) {
	sink := nw.sink
	nw.sink = fabric.Sink{}
	rb := &nw.rb
	rb.Reset(nw.n)
	nw.runParallel(func(v int) {
		stage(v, rb.Sender(v))
	})
	stats, err := rb.Deliver(fabric.DeliverOpts{
		PairWords: nw.msgWords,
		Pool:      nw.pool,
		Sink:      sink,
	})
	if err != nil {
		var re *fabric.RouteError
		if errors.As(err, &re) {
			if re.OutOfRange {
				return nil, fmt.Errorf("cclique: node %d sent to out-of-range node %d", re.From, re.To)
			}
			return nil, &BandwidthError{From: re.From, To: re.To, Words: re.Words, Budget: nw.msgWords}
		}
		return nil, err
	}
	nw.ledger.AddRound(stats.TotalWords, stats.MaxSendLoad, stats.MaxRecvLoad)
	nw.ledger.ObserveScratch(stats.ScratchWords)
	return nil, nil
}

// runParallel executes f(v) for every node v on the network's parked
// worker pool: block ranges are claimed off an atomic cursor, costing one
// wake token per worker per round instead of one channel send per node.
func (nw *Network) runParallel(f func(v int)) {
	if nw.workers == 1 {
		for v := 0; v < nw.n; v++ {
			f(v)
		}
		return
	}
	if nw.pool == nil {
		nw.pool = fabric.NewWorkPool(nw.workers)
	}
	nw.pool.Run(nw.n, f)
}
