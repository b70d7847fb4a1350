// Package mpc simulates the Massively Parallel Computation model (paper
// §1.1): 𝔐 machines with 𝔰 words of local space each; per round, the total
// information sent and received by a machine must fit in its space. The
// simulator enforces these limits and records peak usage, which is what
// Theorems 1.2–1.4's space claims are checked against.
//
// For the linear-space regime the cluster exposes *virtual workers* (one
// per input-graph node) hosted on machines, so the same node-centric
// algorithm code drives both the congested clique and linear-space MPC
// (paper §1.2). Messages between co-hosted workers are free; machine
// boundaries are where space is charged.
package mpc

import (
	"errors"
	"fmt"
	"runtime"

	"ccolor/internal/fabric"
)

// Cluster is an MPC instance implementing fabric.Fabric over virtual
// workers.
type Cluster struct {
	virtual  int
	machines int
	space    int64
	assign   []int   // virtual worker -> machine
	resident []int64 // words of persistent data per machine
	ledger   *fabric.Ledger
	pool     int
	workPool *fabric.WorkPool // parked round-staging workers (lazy)

	peakSpace   int64 // max over machines and rounds of resident + inbound
	maxResident int64 // current max over machines of resident (incremental)

	// layoutAssign / layoutResident are ResetLinear's retained layout
	// scratch, distinct from assign/resident so Reset's copy never aliases
	// its own source.
	layoutAssign   []int
	layoutResident []int64

	// live is the most recent round's buffer, kept until the next round
	// starts so its arenas recycle (and its placed payloads stay valid until
	// then, as fabric.Sink promises).
	live *fabric.RoundBuffer
	// sink is the pending fabric.Sink request, consumed by the next round.
	sink fabric.Sink
}

var _ fabric.Fabric = (*Cluster)(nil)

// Option configures a Cluster.
type Option func(*Cluster)

// WithParallelism caps goroutines used per round.
func WithParallelism(p int) Option {
	return func(c *Cluster) { c.pool = p }
}

// New builds a cluster with the given virtual-worker → machine assignment
// and per-machine space (in words). len(assign) is the number of virtual
// workers; machine IDs must be in [0, machines).
func New(assign []int, machines int, space int64, opts ...Option) (*Cluster, error) {
	for w, m := range assign {
		if m < 0 || m >= machines {
			return nil, fmt.Errorf("mpc: worker %d assigned to invalid machine %d", w, m)
		}
	}
	c := &Cluster{
		virtual:  len(assign),
		machines: machines,
		space:    space,
		assign:   append([]int(nil), assign...),
		resident: make([]int64, machines),
		ledger:   fabric.NewLedger(),
		pool:     runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(c)
	}
	if c.pool < 1 {
		c.pool = 1
	}
	return c, nil
}

// linearLayout packs n nodes first-fit onto machines of space words,
// appending the assignment and per-machine resident totals into the given
// scratch (reused across calls once grown).
func linearLayout(n int, nodeWeight func(v int) int64, space int64, assign []int, resident []int64) ([]int, []int64, error) {
	assign = assign[:0]
	resident = append(resident[:0], 0)
	m := 0
	for v := 0; v < n; v++ {
		w := nodeWeight(v)
		if w > space {
			return nil, nil, fmt.Errorf("mpc: node %d weight %d exceeds machine space %d", v, w, space)
		}
		if resident[m]+w > space {
			m++
			resident = append(resident, 0)
		}
		assign = append(assign, m)
		resident[m] += w
	}
	return assign, resident, nil
}

// NewLinear builds a linear-space cluster for an n-node input: machines of
// space = spaceFactor·n words, with nodes packed onto machines so that the
// given per-node weight (e.g. deg(v) + p(v)) fits. It returns the cluster
// with one virtual worker per node.
func NewLinear(n int, nodeWeight func(v int) int64, spaceFactor int, opts ...Option) (*Cluster, error) {
	if spaceFactor < 1 {
		return nil, fmt.Errorf("mpc: space factor %d < 1", spaceFactor)
	}
	space := int64(spaceFactor) * int64(n)
	assign, resident, err := linearLayout(n, nodeWeight, space, nil, nil)
	if err != nil {
		return nil, err
	}
	c, err := New(assign, len(resident), space, opts...)
	if err != nil {
		return nil, err
	}
	copy(c.resident, resident)
	c.recomputeMaxResident()
	c.observeSpace(0)
	return c, nil
}

// ResetLinear is NewLinear's warm-path twin: it recomputes the linear
// layout into the cluster's retained scratch and re-initializes the
// cluster in place (Reset semantics — ledger, resident data, and the
// peak-space watermark cleared; options and round arenas carried over).
// A session reusing one cluster across solves pays no allocation once the
// scratch has seen its largest instance; the resulting cluster state is
// indistinguishable from a fresh NewLinear.
func (c *Cluster) ResetLinear(n int, nodeWeight func(v int) int64, spaceFactor int) error {
	if spaceFactor < 1 {
		return fmt.Errorf("mpc: space factor %d < 1", spaceFactor)
	}
	space := int64(spaceFactor) * int64(n)
	assign, resident, err := linearLayout(n, nodeWeight, space, c.layoutAssign, c.layoutResident)
	if err != nil {
		return err
	}
	c.layoutAssign, c.layoutResident = assign, resident
	if err := c.Reset(assign, len(resident), space); err != nil {
		return err
	}
	copy(c.resident, resident)
	c.recomputeMaxResident()
	c.observeSpace(0)
	return nil
}

// Workers returns the number of virtual workers.
func (c *Cluster) Workers() int { return c.virtual }

// Reset re-initializes the cluster in place for a new solve: a fresh
// virtual-worker → machine assignment, machine count, and per-machine space,
// with resident data, the ledger, the peak-space watermark, and any pending
// charge-only, combining or placing request cleared. The assignment and
// resident scratch are reused (no allocation once the cluster has seen its
// largest configuration), which is what lets one MIS cluster be recycled
// across every pool of a low-space solve instead of building a new cluster
// per pool. Options (parallelism) and any live round arena carry over; the
// arena is simply recycled by the next round as usual.
func (c *Cluster) Reset(assign []int, machines int, space int64) error {
	for w, m := range assign {
		if m < 0 || m >= machines {
			return fmt.Errorf("mpc: worker %d assigned to invalid machine %d", w, m)
		}
	}
	c.virtual = len(assign)
	c.machines = machines
	c.space = space
	c.assign = append(c.assign[:0], assign...)
	if cap(c.resident) < machines {
		c.resident = make([]int64, machines)
	} else {
		c.resident = c.resident[:machines]
		clear(c.resident)
	}
	c.ledger.Reset()
	c.peakSpace = 0
	c.maxResident = 0
	c.sink = fabric.Sink{}
	return nil
}

// Release returns the cluster's round arenas to the shared pool for reuse
// by other fabrics and parks its staging goroutines. Call it once the solve
// is done; the last round's placed payloads become invalid. The cluster
// remains usable — the next round simply acquires a fresh buffer.
func (c *Cluster) Release() {
	if c.live != nil {
		fabric.ReleaseRoundBuffer(c.live)
		c.live = nil
	}
	if c.workPool != nil {
		c.workPool.Stop()
	}
}

// Machines returns 𝔐.
func (c *Cluster) Machines() int { return c.machines }

// Space returns 𝔰, the per-machine space in words.
func (c *Cluster) Space() int64 { return c.space }

// Ledger returns round/traffic accounting.
func (c *Cluster) Ledger() *fabric.Ledger { return c.ledger }

// PeakMachineSpace returns the maximum words any machine ever needed at
// once — the larger of its resident data and its per-round sent/received
// traffic, each of which the model requires to fit in 𝔰.
func (c *Cluster) PeakMachineSpace() int64 { return c.peakSpace }

// TotalResident returns the current total resident words across machines.
func (c *Cluster) TotalResident() int64 {
	var t int64
	for _, r := range c.resident {
		t += r
	}
	return t
}

// AdjustResident records dw words of persistent data added to (or, if
// negative, removed from) the machine hosting virtual worker w.
func (c *Cluster) AdjustResident(w int, dw int64) error {
	return c.AdjustResidentMachine(c.assign[w], dw)
}

// AdjustResidentMachine records dw words of persistent data on machine m
// directly (used when data placement is chunk-granular rather than
// per-worker).
func (c *Cluster) AdjustResidentMachine(m int, dw int64) error {
	old := c.resident[m]
	c.resident[m] += dw
	if c.resident[m] < 0 {
		return fmt.Errorf("mpc: machine %d resident went negative", m)
	}
	if c.resident[m] > c.space {
		return &SpaceError{Machine: m, Used: c.resident[m], Space: c.space, Kind: "resident"}
	}
	if c.resident[m] > c.maxResident {
		c.maxResident = c.resident[m]
	} else if dw < 0 && old == c.maxResident {
		c.recomputeMaxResident()
	}
	c.observeSpace(0)
	return nil
}

// MachineOf returns the machine hosting virtual worker w.
func (c *Cluster) MachineOf(w int) int { return c.assign[w] }

// GroupOf implements fabric.Grouped: co-hosted workers exchange data for
// free, so collective primitives combine machine-locally.
func (c *Cluster) GroupOf(w int) int { return c.assign[w] }

// CapacityWords implements fabric.Capacitated.
func (c *Cluster) CapacityWords() int64 { return c.space }

// SpaceError reports a violated MPC space constraint.
type SpaceError struct {
	Machine int
	Used    int64
	Space   int64
	Kind    string // "resident", "send", "recv"
}

func (e *SpaceError) Error() string {
	return fmt.Sprintf("mpc: machine %d %s usage %d exceeds space %d", e.Machine, e.Kind, e.Used, e.Space)
}

// SetSink implements fabric.Fabric: the next round sums or places its
// frames as s asks, and is charge-only with the zero Sink.
func (c *Cluster) SetSink(s fabric.Sink) {
	c.sink = s
}

// FrameRound executes one synchronous round across the virtual workers,
// staged as flat frames and charged at machine granularity: cross-machine
// sends and receives per machine must each fit in 𝔰, and co-hosted workers
// exchange for free. The frames are summed or placed as the pending Sink
// asks. It returns nil inboxes.
func (c *Cluster) FrameRound(stage func(w int, sb *fabric.SendBuf)) ([][]fabric.Msg, error) {
	sink := c.sink
	c.sink = fabric.Sink{}
	if c.live != nil {
		fabric.ReleaseRoundBuffer(c.live)
		c.live = nil
	}
	rb := fabric.AcquireRoundBuffer(c.virtual)
	c.live = rb
	c.runParallel(func(v int) { stage(v, rb.Sender(v)) })
	stats, err := rb.Deliver(fabric.DeliverOpts{
		GroupOf:        c.assign,
		Groups:         c.machines,
		FreeIntraGroup: true,
		Pool:           c.workPool,
		Sink:           sink,
	})
	if err != nil {
		var re *fabric.RouteError
		if errors.As(err, &re) && re.OutOfRange {
			return nil, fmt.Errorf("mpc: worker %d sent to out-of-range worker %d", re.From, re.To)
		}
		return nil, err
	}
	var maxSend, maxRecv int64
	for _, m := range stats.Groups {
		send, recv := stats.SendLoad[m], stats.RecvLoad[m]
		if send > c.space {
			return nil, &SpaceError{Machine: int(m), Used: send, Space: c.space, Kind: "send"}
		}
		if recv > c.space {
			return nil, &SpaceError{Machine: int(m), Used: recv, Space: c.space, Kind: "recv"}
		}
		if send > maxSend {
			maxSend = send
		}
		if recv > maxRecv {
			maxRecv = recv
		}
		if recv > c.peakSpace {
			c.peakSpace = recv
		}
		if send > c.peakSpace {
			c.peakSpace = send
		}
	}
	c.ledger.AddRound(stats.TotalWords, maxSend, maxRecv)
	c.ledger.ObserveScratch(stats.ScratchWords)
	return nil, nil
}

// observeSpace folds the current resident high-water mark (plus any
// uniform per-machine extra) into the peak. The max resident is maintained
// incrementally by AdjustResidentMachine — a full scan here made every
// chunk placement O(machines), i.e. O(machines²) setup at large n.
func (c *Cluster) observeSpace(extra int64) {
	if c.maxResident+extra > c.peakSpace {
		c.peakSpace = c.maxResident + extra
	}
}

func (c *Cluster) recomputeMaxResident() {
	c.maxResident = 0
	for _, r := range c.resident {
		if r > c.maxResident {
			c.maxResident = r
		}
	}
}

// runParallel executes f(v) for every virtual worker on the cluster's
// parked pool: block ranges are claimed off an atomic cursor, costing one
// wake token per goroutine per round instead of one channel send per
// worker.
func (c *Cluster) runParallel(f func(v int)) {
	if c.pool == 1 || c.virtual < 2 {
		for v := 0; v < c.virtual; v++ {
			f(v)
		}
		return
	}
	if c.workPool == nil {
		c.workPool = fabric.NewWorkPool(c.pool)
	}
	c.workPool.Run(c.virtual, f)
}
