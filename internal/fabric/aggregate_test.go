package fabric_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
	"ccolor/internal/mpc"
)

// ledgerString renders a ledger's totals, loads and phase profile for a
// failure message.
func ledgerString(l *fabric.Ledger) string {
	return fmt.Sprintf("rounds=%d words=%d maxSend=%d maxRecv=%d peakRound=%d phases=%v",
		l.Rounds(), l.WordsMoved(), l.MaxSendLoad(), l.MaxRecvLoad(), l.PeakRoundWords(), l.PhaseProfile())
}

// referenceAggregateTree is the grouped AggregateVec as it ran on reading
// rounds, with each reduction level's inboxes read back through
// fabrictest.Inboxes and summed by the leader: per-group combining into
// the representative's accumulator, a fan-in-bounded tree over the
// representatives, and the result pushed back down the same tree.
// TestAggregateTreeMatchesReference holds the placing-round tree to its
// rounds, frames and totals.
func referenceAggregateTree(f fabric.Fabric, vlen int, local func(w int) []int64) ([]int64, error) {
	g := f.(fabric.Grouped)
	var reps []int
	repOf := map[int]int{} // group -> representative
	for w := 0; w < f.Workers(); w++ {
		if _, ok := repOf[g.GroupOf(w)]; !ok {
			repOf[g.GroupOf(w)] = w
			reps = append(reps, w)
		}
	}
	acc := map[int][]int64{}
	for _, rep := range reps {
		acc[rep] = make([]int64, vlen)
	}
	for w := 0; w < f.Workers(); w++ {
		for j, x := range local(w) {
			acc[repOf[g.GroupOf(w)]][j] += x
		}
	}
	branch := 8
	if c, ok := f.(fabric.Capacitated); ok {
		branch = int(c.CapacityWords() / int64(2*vlen))
	}
	branch = max(branch, 2)
	var levels [][]int
	for cur := reps; len(cur) > 1; {
		levels = append(levels, cur)
		leaderOf := map[int]int{}
		var next []int
		for i := 0; i < len(cur); i += branch {
			next = append(next, cur[i])
			for _, m := range cur[i+1 : min(i+branch, len(cur))] {
				leaderOf[m] = cur[i]
			}
		}
		in, err := fabrictest.Inboxes(f, func(w int, sb *fabric.SendBuf) {
			if leader, ok := leaderOf[w]; ok {
				p := sb.Begin(leader, vlen)
				for k, x := range acc[w] {
					p[k] = uint64(x)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		for _, leader := range next {
			for _, m := range in[leader] {
				for k, x := range m.Words {
					acc[leader][k] += int64(x)
				}
			}
		}
		cur = next
	}
	result := slices.Clone(acc[reps[0]])
	have := map[int]bool{reps[0]: true}
	for li := len(levels) - 1; li >= 0; li-- {
		cur := levels[li]
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			for i := 0; i < len(cur); i += branch {
				if cur[i] != w || !have[w] {
					continue
				}
				for _, m := range cur[i+1 : min(i+branch, len(cur))] {
					p := sb.Begin(m, vlen)
					for k, x := range result {
						p[k] = uint64(x)
					}
				}
			}
		}); err != nil {
			return nil, err
		}
		for i := 0; i < len(cur); i += branch {
			if have[cur[i]] {
				for _, m := range cur[i+1 : min(i+branch, len(cur))] {
					have[m] = true
				}
			}
		}
	}
	return result, nil
}

// aggregateLayout is a grouped layout with reps machines, machine m hosting
// 1 + m%3 workers, so groups differ in size and most machines have members
// that are not representatives. It returns the assignment and the
// representatives.
func aggregateLayout(reps int) (assign, repWorkers []int) {
	for m := 0; m < reps; m++ {
		repWorkers = append(repWorkers, len(assign))
		for k := 0; k <= m%3; k++ {
			assign = append(assign, m)
		}
	}
	return assign, repWorkers
}

// aggregateLocal is every worker's local vector: words spread over the
// whole int64 range, so the sums wrap.
func aggregateLocal(vlen int) func(w int) []int64 {
	return func(w int) []int64 {
		v := make([]int64, vlen)
		for j := range v {
			v[j] = int64(uint64(w+1) * 0x9e3779b97f4a7c15 >> j)
		}
		return v
	}
}

// The test clusters' shape: vlen-word aggregates on machines of space
// 2·vlen·branch words, so the grouped aggregation's tree fan-in, space /
// (2·vlen), is aggregateBranch.
const (
	aggregateVlen   = 3
	aggregateBranch = 4
	aggregateSpace  = 2 * aggregateVlen * aggregateBranch
)

// TestAggregateTreeMatchesReference: the grouped AggregateVec, whose
// reduction levels are placing rounds, returns the reference tree's totals
// (and the plain sum of the local vectors) and stages exactly its frames —
// same rounds, same (sender, destination, payload) in the same per-sender
// order, same charged words — with equal ledgers and peak machine space,
// for representative counts around the tree's level boundaries (1, 2,
// branch, branch+1, branch²+1), on clusters staging on four goroutines
// with every round split into sender blocks, so placing callbacks run
// concurrently. One scratch serves every case.
func TestAggregateTreeMatchesReference(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	const vlen = aggregateVlen
	local := aggregateLocal(vlen)
	var ws fabric.VecScratch
	for _, reps := range []int{1, 2, aggregateBranch, aggregateBranch + 1, aggregateBranch*aggregateBranch + 1} {
		t.Run(fmt.Sprintf("reps%d", reps), func(t *testing.T) {
			assign, _ := aggregateLayout(reps)
			mk := func() *frameTap {
				c, err := mpc.New(assign, reps, aggregateSpace, mpc.WithParallelism(4))
				if err != nil {
					t.Fatal(err)
				}
				c.Ledger().SetPhase("aggregate")
				return &frameTap{Cluster: c}
			}
			ref, got := mk(), mk()
			defer ref.Release()
			defer got.Release()
			want, err := referenceAggregateTree(ref, vlen, local)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ws.AggregateVec(got, 4, vlen, local)
			if err != nil {
				t.Fatal(err)
			}
			plain := make([]int64, vlen)
			for w := range assign {
				for j, x := range local(w) {
					plain[j] += x
				}
			}
			if !slices.Equal(res, want) || !slices.Equal(res, plain) {
				t.Fatalf("totals %v, reference %v, plain sum %v", res, want, plain)
			}
			if len(got.rounds) != len(ref.rounds) {
				t.Fatalf("%d rounds, reference %d", len(got.rounds), len(ref.rounds))
			}
			for r := range ref.rounds {
				if !slices.EqualFunc(got.rounds[r], ref.rounds[r], func(a, b sentFrame) bool {
					return a.from == b.from && a.to == b.to && slices.Equal(a.words, b.words)
				}) {
					t.Fatalf("round %d frames %v, reference %v", r, got.rounds[r], ref.rounds[r])
				}
			}
			if !slices.Equal(got.words, ref.words) {
				t.Fatalf("charged words %v, reference %v", got.words, ref.words)
			}
			gl, rl := got.Ledger(), ref.Ledger()
			if gl.Rounds() != rl.Rounds() || gl.WordsMoved() != rl.WordsMoved() ||
				gl.MaxSendLoad() != rl.MaxSendLoad() || gl.MaxRecvLoad() != rl.MaxRecvLoad() ||
				gl.PeakRoundWords() != rl.PeakRoundWords() ||
				!reflect.DeepEqual(gl.PhaseProfile(), rl.PhaseProfile()) ||
				got.PeakMachineSpace() != ref.PeakMachineSpace() {
				t.Fatalf("ledger\n%s\nreference\n%s", ledgerString(gl), ledgerString(rl))
			}
			if reps > 1 && gl.WordsMoved() == 0 {
				t.Fatal("no cross-machine traffic was charged")
			}
		})
	}
}

// TestAggregateTreeWordsTravelOnlyInFrames flips one payload word of one
// staged reduction frame at each level of a three-level tree and requires
// exactly the total that word feeds to change, by the flip: the leaders
// sum what their frames carried.
func TestAggregateTreeWordsTravelOnlyInFrames(t *testing.T) {
	const vlen, mask = aggregateVlen, 1 << 40
	local := aggregateLocal(vlen)
	// 17 representatives at branch 4: level 0 has blocks led by reps 0, 4,
	// 8, 12 and 16, level 1 blocks led by reps 0 and 16, level 2 one block.
	assign, reps := aggregateLayout(aggregateBranch*aggregateBranch + 1)
	machines := len(reps)
	mk := func(tamper func(round, w int, staged []fabric.Msg)) *frameTap {
		c, err := mpc.New(assign, machines, aggregateSpace, mpc.WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		return &frameTap{Cluster: c, tamper: tamper}
	}
	var ws fabric.VecScratch
	clean := mk(nil)
	defer clean.Release()
	want, err := ws.AggregateVec(clean, 4, vlen, local)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ round, sender int }{{0, reps[2]}, {1, reps[4]}, {2, reps[16]}} {
		var orig uint64
		tampered := false
		f := mk(func(round, w int, staged []fabric.Msg) {
			if round != tc.round || w != tc.sender || len(staged) == 0 {
				return
			}
			orig = staged[0].Words[1]
			staged[0].Words[1] ^= mask
			tampered = true
		})
		got, err := ws.AggregateVec(f, 4, vlen, local)
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !tampered {
			t.Fatalf("round %d: sender %d staged no reduction frame", tc.round, tc.sender)
		}
		for j := range want {
			w := want[j]
			if j == 1 {
				w += int64(orig^mask) - int64(orig)
			}
			if got[j] != w {
				t.Fatalf("round %d, sender %d's word 1 flipped: total %d = %d, want %d (clean %d)",
					tc.round, tc.sender, j, got[j], w, want[j])
			}
		}
		if f.Ledger().Rounds() != clean.Ledger().Rounds() || f.Ledger().WordsMoved() != clean.Ledger().WordsMoved() {
			t.Fatalf("round %d: tampering changed the charges", tc.round)
		}
	}
}
