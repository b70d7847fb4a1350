package fabric_test

import (
	"fmt"
	"slices"
	"testing"

	"ccolor/internal/fabric"
	"ccolor/internal/mpc"
)

// referenceBroadcastTree is the grouped broadcast as it stood before the
// tree ran on retained tables: a per-call representative list, a have map,
// and an O(reps) scan per holder at every level.
// TestBroadcastTreeMatchesReference holds the table-driven tree to its
// rounds and frames.
func referenceBroadcastTree(f fabric.Fabric, src int, words []uint64) error {
	g := f.(fabric.Grouped)
	var reps []int
	seen := map[int]bool{}
	for w := 0; w < f.Workers(); w++ {
		if !seen[g.GroupOf(w)] {
			seen[g.GroupOf(w)] = true
			reps = append(reps, w)
		}
	}
	branch := 8
	if c, ok := f.(fabric.Capacitated); ok {
		branch = int(c.CapacityWords() / int64(2*len(words)))
	}
	if branch < 2 {
		branch = 2
	}
	root := reps[0]
	if src != root {
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			if w == src {
				sb.Put(root, words...)
			}
		}); err != nil {
			return err
		}
	}
	have := map[int]bool{root: true}
	for reach := 1; reach < len(reps); reach *= branch {
		if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
			if !have[w] {
				return
			}
			for i, t := range reps {
				if i < reach || have[t] {
					continue
				}
				if i/branch < reach && reps[i/branch] == w && i < reach*branch {
					sb.Put(t, words...)
				}
			}
		}); err != nil {
			return err
		}
		for i, t := range reps {
			if i < reach*branch {
				have[t] = true
			}
		}
	}
	return nil
}

// sentFrame is one staged frame with its payload.
type sentFrame struct {
	from, to int
	words    []uint64
}

// frameTap records every round on a grouped MPC cluster: per round, the
// staged frames sender by sender, each sender's in staging order, and the
// words the ledger charged. Embedding the cluster keeps it Grouped and
// Capacitated, so the primitives take their grouped paths through it.
type frameTap struct {
	*mpc.Cluster
	rounds [][]sentFrame
	words  []int64
}

func (ft *frameTap) FrameRound(stage func(int, *fabric.SendBuf)) ([][]fabric.Msg, error) {
	perSender := make([][]sentFrame, ft.Workers())
	before := ft.Ledger().WordsMoved()
	in, err := ft.Cluster.FrameRound(func(w int, sb *fabric.SendBuf) {
		stage(w, sb)
		for _, m := range fabric.StagedFrames(sb) {
			perSender[w] = append(perSender[w], sentFrame{w, m.To, slices.Clone(m.Words)})
		}
	})
	ft.rounds = append(ft.rounds, slices.Concat(perSender...))
	ft.words = append(ft.words, ft.Ledger().WordsMoved()-before)
	return in, err
}

func (ft *frameTap) Round(produce func(w int) []fabric.Msg) ([][]fabric.Msg, error) {
	return ft.FrameRound(func(w int, sb *fabric.SendBuf) {
		for _, m := range produce(w) {
			sb.Put(m.To, m.Words...)
		}
	})
}

// TestBroadcastTreeMatchesReference: the grouped broadcast stages exactly
// the reference tree's frames — same rounds, same (sender, destination,
// payload) in the same per-sender order, same charged words — for
// representative counts around the tree's level boundaries (1, 2, branch,
// branch+1, branch², branch²+1), with src the root, another
// representative, or a non-representative member, on a retained scratch
// reused across every case.
func TestBroadcastTreeMatchesReference(t *testing.T) {
	words := []uint64{0xfeed, 42, 7}
	const space = 24 // branch = 24 / (2·3) = 4
	const branch = 4
	var ws fabric.VecScratch
	for _, reps := range []int{1, 2, branch, branch + 1, branch * branch, branch*branch + 1} {
		// Machine m hosts 1 + m%3 workers, so groups differ in size and
		// most machines have members that are not representatives.
		var assign []int
		for m := 0; m < reps; m++ {
			for k := 0; k <= m%3; k++ {
				assign = append(assign, m)
			}
		}
		n := len(assign)
		// Worker 2, when there is one, is machine 1's second member.
		srcs := []int{0, min(2, n-1), n / 2, n - 1}
		slices.Sort(srcs)
		for _, src := range slices.Compact(srcs) {
			t.Run(fmt.Sprintf("reps%d/src%d", reps, src), func(t *testing.T) {
				mk := func() *frameTap {
					c, err := mpc.New(assign, reps, space, mpc.WithParallelism(4))
					if err != nil {
						t.Fatal(err)
					}
					return &frameTap{Cluster: c}
				}
				ref, got := mk(), mk()
				defer ref.Release()
				defer got.Release()
				if err := referenceBroadcastTree(ref, src, words); err != nil {
					t.Fatal(err)
				}
				if err := ws.Broadcast(got, 4, src, words); err != nil {
					t.Fatal(err)
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
				if got.Ledger().Rounds() != ref.Ledger().Rounds() || got.Ledger().WordsMoved() != ref.Ledger().WordsMoved() {
					t.Fatalf("ledger (%d, %d), reference (%d, %d)", got.Ledger().Rounds(), got.Ledger().WordsMoved(),
						ref.Ledger().Rounds(), ref.Ledger().WordsMoved())
				}
				// Every representative receives the payload exactly once,
				// the root only when src is not the root.
				recv := map[int]int{}
				for _, round := range got.rounds {
					for _, fr := range round {
						recv[fr.to]++
					}
				}
				for w := 0; w < n; w++ {
					isRep := w == 0 || assign[w] != assign[w-1]
					want := 0
					if isRep && (w != 0 || src != 0) {
						want = 1
					}
					if recv[w] != want {
						t.Fatalf("worker %d received %d frames, want %d", w, recv[w], want)
					}
				}
			})
		}
	}
}
