package ccolor_test

// Every fabric round must pass through FrameRound. The benchmark's traced
// runs (perfbench/traced.go) time rounds with wrappers that embed
// *cclique.Network or *mpc.Cluster and override FrameRound, and attribute
// each round's wall time to the fabric layer from those timings. A round
// issued any other way would escape the wrapper and its time would land in
// the caller's layer instead. The wrappers below have the same shape, and
// count the calls they see and the sink requests that precede them.

import (
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/core"
	"ccolor/internal/fabric"
	"ccolor/internal/mpc"
	"ccolor/internal/scenario"
	"ccolor/internal/verify"
)

// roundCount tallies the rounds a wrapper saw, by kind: charge-only,
// combining and placing. The wrappers see the kind through SetSink, which
// they forward to the backend.
type roundCount struct {
	rounds, chargeOnly, combining, placing int
	next                                   fabric.Sink
}

func (c *roundCount) setSink(inner func(fabric.Sink), s fabric.Sink) {
	c.next = s
	inner(s)
}

func (c *roundCount) frameRound(inner func(func(int, *fabric.SendBuf)) ([][]fabric.Msg, error),
	stage func(int, *fabric.SendBuf)) ([][]fabric.Msg, error) {
	c.rounds++
	switch {
	case c.next.Sum != nil:
		c.combining++
	case c.next.Place != nil:
		c.placing++
	default:
		c.chargeOnly++
	}
	c.next = fabric.Sink{}
	return inner(stage)
}

type tappedClique struct {
	*cclique.Network
	roundCount
}

func (f *tappedClique) FrameRound(stage func(int, *fabric.SendBuf)) ([][]fabric.Msg, error) {
	return f.frameRound(f.Network.FrameRound, stage)
}

func (f *tappedClique) SetSink(s fabric.Sink) { f.setSink(f.Network.SetSink, s) }

type tappedCluster struct {
	*mpc.Cluster
	roundCount
}

func (f *tappedCluster) FrameRound(stage func(int, *fabric.SendBuf)) ([][]fabric.Msg, error) {
	return f.frameRound(f.Cluster.FrameRound, stage)
}

func (f *tappedCluster) SetSink(s fabric.Sink) { f.setSink(f.Cluster.SetSink, s) }

// TestRoundTapSeesEveryRound solves a registry scenario through a tapped
// congested clique and a tapped linear MPC cluster and requires the tap to
// have seen exactly the rounds the ledger charged, charge-only, combining
// and placing ones included. The clique must run combining rounds
// (AggregateVec's first round); the grouped MPC aggregation runs none, its
// reduction levels being placing rounds. Both must run placing rounds (the
// collect step's gather).
func TestRoundTapSeesEveryRound(t *testing.T) {
	spec, err := scenario.Lookup("gnp")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := spec.Instance(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.G.N()
	weight := func(v int) int64 { return int64(inst.G.Degree(int32(v)) + len(inst.Palettes[v]) + 2) }
	cases := []struct {
		name      string
		combining bool
		mk        func() (f fabric.Fabric, pairWords int, count *roundCount, release func())
	}{
		{"cclique", true, func() (fabric.Fabric, int, *roundCount, func()) {
			nw := cclique.New(n)
			f := &tappedClique{Network: nw}
			return f, nw.MsgWords(), &f.roundCount, nw.Release
		}},
		{"mpc", false, func() (fabric.Fabric, int, *roundCount, func()) {
			cl, err := mpc.NewLinear(n, weight, 16)
			if err != nil {
				t.Fatal(err)
			}
			f := &tappedCluster{Cluster: cl}
			return f, 8, &f.roundCount, cl.Release
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, pairWords, count, release := tc.mk()
			defer release()
			var ws core.Workspace
			defer ws.Release()
			col, _, err := core.SolveWS(f, pairWords, inst, core.DefaultParams(), &ws)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.ListColoring(inst, col); err != nil {
				t.Fatal(err)
			}
			if got, want := count.rounds, f.Ledger().Rounds(); got != want || want == 0 {
				t.Fatalf("tap saw %d rounds, ledger charged %d", got, want)
			}
			if count.chargeOnly == 0 {
				t.Fatal("no charge-only round passed through the tap")
			}
			if (count.combining > 0) != tc.combining {
				t.Fatalf("tap saw %d combining rounds", count.combining)
			}
			if count.placing == 0 {
				t.Fatal("no placing round passed through the tap")
			}
			t.Logf("%d rounds: %d charge-only, %d combining and %d placing",
				count.rounds, count.chargeOnly, count.combining, count.placing)
		})
	}
}
