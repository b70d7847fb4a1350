package fabric_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ccolor/internal/cclique"
	"ccolor/internal/fabric"
	"ccolor/internal/fabric/fabrictest"
	"ccolor/internal/mpc"
)

// referenceGather is GatherMany's test oracle: the gather as it ran on
// reading rounds, with each round's inboxes read back through
// fabrictest.Inboxes. It copies every spread inbox into per-intermediate
// record queues, sorts them by (target, rank), and per delivery round
// ships the first ⌊pairWords/2⌋ records of every (intermediate, target)
// run, compacting the queue after each round. GatherMany must reproduce
// its result and every round's frames: the same (sender, destination)
// pairs and sizes.
func referenceGather(f fabric.Fabric, pairWords int, payload func(w int) (int, []uint64)) (map[int][]fabric.SenderBlock, error) {
	n := f.Workers()
	targets := make([]int, n)
	blocks := make([][]uint64, n)
	for w := 0; w < n; w++ {
		targets[w], blocks[w] = payload(w)
		if targets[w] >= n {
			return nil, fmt.Errorf("fabric: gather target %d out of range", targets[w])
		}
	}
	if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
		if targets[w] < 0 || len(blocks[w]) == 0 || w == 0 {
			return
		}
		sb.Put(0, uint64(targets[w]), uint64(len(blocks[w])))
	}); err != nil {
		return nil, err
	}
	offsets := make([]int, n)
	totals := make([]int, n)
	for w := 0; w < n; w++ {
		if targets[w] < 0 || len(blocks[w]) == 0 {
			continue
		}
		offsets[w] = totals[targets[w]]
		totals[targets[w]] += len(blocks[w])
	}
	if err := fabric.SendFrames(f, func(w int, sb *fabric.SendBuf) {
		if w != 0 {
			return
		}
		for t := 1; t < n; t++ {
			if targets[t] < 0 || len(blocks[t]) == 0 {
				continue
			}
			sb.Put(t, uint64(offsets[t]))
		}
	}); err != nil {
		return nil, err
	}

	type rec struct {
		target, rank int
		word         uint64
	}
	maxBlock := 0
	for w := 0; w < n; w++ {
		if targets[w] >= 0 && len(blocks[w]) > maxBlock {
			maxBlock = len(blocks[w])
		}
	}
	held := make([][]rec, n)
	for s := 0; s < (maxBlock+n-1)/n; s++ {
		in, err := fabrictest.Inboxes(f, func(w int, sb *fabric.SendBuf) {
			if targets[w] < 0 {
				return
			}
			for k := s * n; k < min((s+1)*n, len(blocks[w])); k++ {
				r := offsets[w] + k
				if r%n == w {
					held[w] = append(held[w], rec{targets[w], r, blocks[w][k]})
					continue
				}
				sb.Put(r%n, uint64(targets[w]), uint64(r), blocks[w][k])
			}
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for _, m := range in[i] {
				held[i] = append(held[i], rec{int(m.Words[0]), int(m.Words[1]), m.Words[2]})
			}
		}
	}

	for i := range held {
		slices.SortFunc(held[i], func(a, b rec) int {
			if a.target != b.target {
				return a.target - b.target
			}
			return a.rank - b.rank
		})
	}
	goff := make([]int, n+1)
	for t := 0; t < n; t++ {
		goff[t+1] = goff[t] + totals[t]
	}
	gath := make([]uint64, goff[n])
	perRound := pairWords / 2
	if perRound < 1 {
		return nil, fmt.Errorf("fabric: pairWords %d too small for gather delivery", pairWords)
	}
	for slices.ContainsFunc(held, func(q []rec) bool { return len(q) > 0 }) {
		in, err := fabrictest.Inboxes(f, func(w int, sb *fabric.SendBuf) {
			q := held[w]
			for i := 0; i < len(q); {
				t := q[i].target
				j := i
				for j < len(q) && q[j].target == t && j-i < perRound {
					j++
				}
				if t == w {
					for _, r := range q[i:j] {
						gath[goff[t]+r.rank] = r.word
					}
				} else {
					payload := sb.Begin(t, 2*(j-i))
					for k, r := range q[i:j] {
						payload[2*k], payload[2*k+1] = uint64(r.rank), r.word
					}
				}
				for j < len(q) && q[j].target == t {
					j++
				}
				i = j
			}
		})
		if err != nil {
			return nil, err
		}
		for w, q := range held {
			kept := q[:0]
			for i := 0; i < len(q); {
				j := i
				for j < len(q) && q[j].target == q[i].target {
					j++
				}
				kept = append(kept, q[min(i+perRound, j):j]...)
				i = j
			}
			held[w] = kept
		}
		for t := 0; t < n; t++ {
			for _, m := range in[t] {
				for k := 0; k+1 < len(m.Words); k += 2 {
					gath[goff[t]+int(m.Words[k])] = m.Words[k+1]
				}
			}
		}
	}

	out := make(map[int][]fabric.SenderBlock)
	for w := 0; w < n; w++ {
		if targets[w] < 0 || len(blocks[w]) == 0 {
			continue
		}
		t := targets[w]
		lo := goff[t] + offsets[w]
		out[t] = append(out[t], fabric.SenderBlock{From: w, Words: gath[lo : lo+len(blocks[w])]})
	}
	return out, nil
}

// stagedFrame is one staged frame as a gatherTap saw it.
type stagedFrame struct{ from, to, words int }

// gatherTap counts every round that passes through FrameRound: the frames
// it staged, sorted, and the words the ledger charged for it. With tamper
// set, it may change a staged frame in place before delivery.
type gatherTap struct {
	fabric.Fabric
	frames [][]stagedFrame
	words  []int64
	tamper func(round, w int, staged []fabric.Msg)
}

func (g *gatherTap) FrameRound(stage func(int, *fabric.SendBuf)) ([][]fabric.Msg, error) {
	round := len(g.frames)
	perSender := make([][]stagedFrame, g.Workers())
	before := g.Ledger().WordsMoved()
	in, err := g.Fabric.FrameRound(func(w int, sb *fabric.SendBuf) {
		stage(w, sb)
		staged := fabric.StagedFrames(sb)
		if g.tamper != nil {
			g.tamper(round, w, staged)
		}
		for _, m := range staged {
			perSender[w] = append(perSender[w], stagedFrame{w, m.To, len(m.Words)})
		}
	})
	all := slices.Concat(perSender...)
	slices.SortFunc(all, func(a, b stagedFrame) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.words, b.words))
	})
	g.frames = append(g.frames, all)
	g.words = append(g.words, g.Ledger().WordsMoved()-before)
	return in, err
}

// gatherBackends builds an n-worker congested clique with the given
// pair budget and a grouped MPC cluster (four workers per machine), both
// staging on four goroutines.
func gatherBackends(t *testing.T, n, msgWords int) map[string]func() fabric.Fabric {
	t.Helper()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i / 4
	}
	return map[string]func() fabric.Fabric{
		"cclique": func() fabric.Fabric {
			return cclique.New(n, cclique.WithMsgWords(msgWords), cclique.WithParallelism(4))
		},
		"mpc": func() fabric.Fabric {
			c, err := mpc.New(assign, (n+3)/4, 1<<16, mpc.WithParallelism(4))
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
}

// release hands a backend's arenas back and parks its workers.
func release(f fabric.Fabric) {
	if r, ok := f.(interface{ Release() }); ok {
		r.Release()
	}
}

// gatherCase is one gather's input: per worker, a target and a block.
type gatherCase struct {
	name    string
	n       int
	payload func(w int) (int, []uint64)
}

// gatherCases are the oracle test's inputs, drawn once from a fixed seed.
func gatherCases() []gatherCase {
	rng := rand.New(rand.NewSource(5))
	fixed := func(name string, n int, pick func(w int) (int, int)) gatherCase {
		targets := make([]int, n)
		blocks := make([][]uint64, n)
		for w := range n {
			var l int
			targets[w], l = pick(w)
			blocks[w] = make([]uint64, l)
			for i := range blocks[w] {
				blocks[w][i] = rng.Uint64()
			}
		}
		return gatherCase{name, n, func(w int) (int, []uint64) { return targets[w], blocks[w] }}
	}
	return []gatherCase{
		// A fifth of the workers send nothing, a few send empty blocks,
		// blocks run to twice n, and targets collide.
		fixed("random", 64, func(w int) (int, int) {
			if rng.Intn(5) == 0 {
				return -1, rng.Intn(3)
			}
			return rng.Intn(8), rng.Intn(2 * 64)
		}),
		// Blocks longer than n: four spread rounds, and a target that is
		// also an intermediate and a sender.
		fixed("long-blocks", 16, func(w int) (int, int) {
			if w%5 == 0 {
				return w % 3, 3*16 + w
			}
			return -1, 0
		}),
		// 32 targets of 2n words each: every intermediate relays two
		// records to every target.
		fixed("many-targets", 64, func(w int) (int, int) { return w / 2, 64 }),
		// Everyone gathers onto one collector, as collect does.
		fixed("one-collector", 128, func(w int) (int, int) {
			if w%2 == 1 {
				return 77, 5 + w%13
			}
			return -1, 0
		}),
		fixed("nothing", 16, func(w int) (int, int) { return -1, 0 }),
	}
}

// TestGatherManyMatchesReference runs every gather case through
// GatherMany and the reading-round oracle, on a congested clique and an
// MPC cluster, at pairWords 2, 4 and 8, with every round split into sender
// blocks so placing callbacks run concurrently. The results must agree
// block for block, and the rounds frame for frame — the same (sender,
// destination, size) frames in every round, so the same words and loads —
// with equal ledgers: rounds, words, peak loads, PeakRoundWords and the
// phase profile. One scratch serves every call, so stale state from a
// larger or differently shaped gather would show.
func TestGatherManyMatchesReference(t *testing.T) {
	oldCut := fabric.DeliverParallelMinWords
	fabric.DeliverParallelMinWords = 1
	defer func() { fabric.DeliverParallelMinWords = oldCut }()
	var ws fabric.VecScratch
	for _, tc := range gatherCases() {
		for _, pw := range []int{2, 4, 8} {
			for name, mk := range gatherBackends(t, tc.n, max(4, pw)) {
				what := fmt.Sprintf("%s/pairWords=%d/%s", tc.name, pw, name)
				ref, got := &gatherTap{Fabric: mk()}, &gatherTap{Fabric: mk()}
				ref.Ledger().SetPhase("collect:gather")
				got.Ledger().SetPhase("collect:gather")
				want, err := referenceGather(ref, pw, tc.payload)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				res, err := ws.GatherMany(got, pw, tc.payload)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(res.Off) != tc.n+1 {
					t.Fatalf("%s: %d offsets for %d targets", what, len(res.Off), tc.n)
				}
				blocks := 0
				for target := range tc.n {
					wb, gb := want[target], res.To(target)
					blocks += len(gb)
					if len(wb) != len(gb) {
						t.Fatalf("%s target %d: %d blocks, oracle %d", what, target, len(gb), len(wb))
					}
					for i := range wb {
						if gb[i].From != wb[i].From || !slices.Equal(gb[i].Words, wb[i].Words) {
							t.Fatalf("%s target %d block %d: from %d (%d words), oracle from %d (%d words)",
								what, target, i, gb[i].From, len(gb[i].Words), wb[i].From, len(wb[i].Words))
						}
					}
				}
				if blocks != len(res.Blocks) {
					t.Fatalf("%s: %d blocks reachable, %d in the result", what, blocks, len(res.Blocks))
				}
				if len(got.frames) != len(ref.frames) {
					t.Fatalf("%s: %d rounds, oracle %d", what, len(got.frames), len(ref.frames))
				}
				for r := range ref.frames {
					if !slices.Equal(got.frames[r], ref.frames[r]) || got.words[r] != ref.words[r] {
						t.Fatalf("%s round %d: %d frames (%d words), oracle %d frames (%d words)",
							what, r, len(got.frames[r]), got.words[r], len(ref.frames[r]), ref.words[r])
					}
				}
				gl, rl := got.Ledger(), ref.Ledger()
				if gl.Rounds() != rl.Rounds() || gl.WordsMoved() != rl.WordsMoved() ||
					gl.MaxSendLoad() != rl.MaxSendLoad() || gl.MaxRecvLoad() != rl.MaxRecvLoad() ||
					gl.PeakRoundWords() != rl.PeakRoundWords() ||
					!reflect.DeepEqual(gl.PhaseProfile(), rl.PhaseProfile()) {
					t.Fatalf("%s: ledger\n%s\noracle\n%s", what, ledgerString(gl), ledgerString(rl))
				}
				release(ref.Fabric)
				release(got.Fabric)
			}
		}
	}
}

// TestGatherManyWordsTravelOnlyInFrames flips one payload word of one
// staged spread frame, then of one staged delivery frame, and requires
// exactly the gathered word that frame carries to change, by the flipped
// bits: the gathered words travel only through frames.
func TestGatherManyWordsTravelOnlyInFrames(t *testing.T) {
	const n, pw, mask = 16, 4, 1 << 40
	// Workers 1..15 send five words each to target w mod 3: one spread
	// round (round 2, after the two offset rounds) and one delivery round
	// (round 3).
	payload := func(w int) (int, []uint64) {
		if w == 0 {
			return -1, nil
		}
		words := make([]uint64, 5)
		for i := range words {
			words[i] = uint64(w*100 + i)
		}
		return w % 3, words
	}
	for name, mk := range gatherBackends(t, n, pw) {
		var ws fabric.VecScratch
		clean := &gatherTap{Fabric: mk()}
		want, err := ws.GatherMany(clean, pw, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(clean.frames) != 4 {
			t.Fatalf("%s: %d rounds, want 4", name, len(clean.frames))
		}
		wantWords := gatheredWords(n, want)
		for _, tc := range []struct {
			kind  string
			round int
		}{{"spread", 2}, {"delivery", 3}} {
			// Sender 7 tampers with its first staged frame. A spread frame is
			// (target, rank, word); a delivery frame to target t is (rank,
			// word) pairs.
			var target, rank int
			tampered := false
			f := &gatherTap{Fabric: mk(), tamper: func(round, w int, staged []fabric.Msg) {
				if round != tc.round || w != 7 || len(staged) == 0 {
					return
				}
				p := staged[0].Words
				if tc.kind == "spread" {
					target, rank = int(p[0]), int(p[1])
					p[2] ^= mask
				} else {
					target, rank = staged[0].To, int(p[0])
					p[1] ^= mask
				}
				tampered = true
			}}
			res, err := ws.GatherMany(f, pw, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !tampered {
				t.Fatalf("%s: sender 7 staged no %s frame", name, tc.kind)
			}
			got := gatheredWords(n, res)
			for tt := range n {
				for r := range got[tt] {
					flipped := tt == target && r == rank
					if (got[tt][r] != wantWords[tt][r]) != flipped ||
						(flipped && got[tt][r] != wantWords[tt][r]^mask) {
						t.Fatalf("%s, %s frame for (target %d, rank %d) flipped: target %d rank %d = %#x, clean %#x",
							name, tc.kind, target, rank, tt, r, got[tt][r], wantWords[tt][r])
					}
				}
			}
			release(f.Fabric)
		}
		release(clean.Fabric)
	}
}

// gatheredWords flattens a gather result into per-target words in rank
// order (the blocks in sender order, concatenated), copied out of the
// scratch.
func gatheredWords(n int, g fabric.Gathered) [][]uint64 {
	out := make([][]uint64, n)
	for t := range n {
		for _, b := range g.To(t) {
			out[t] = append(out[t], b.Words...)
		}
	}
	return out
}

// TestGatherManyRejectsSmallPairWords: a pairWords below 2 leaves no room
// for a (rank, word) delivery record, so the call fails before its first
// round and charges nothing.
func TestGatherManyRejectsSmallPairWords(t *testing.T) {
	nw := cclique.New(8)
	defer nw.Release()
	var ws fabric.VecScratch
	_, err := ws.GatherMany(nw, 1, func(w int) (int, []uint64) { return 0, []uint64{uint64(w)} })
	if err == nil {
		t.Fatal("pairWords 1 accepted")
	}
	if l := nw.Ledger(); l.Rounds() != 0 || l.WordsMoved() != 0 {
		t.Fatalf("failed gather charged %d rounds and %d words", l.Rounds(), l.WordsMoved())
	}
}
