package fabric

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// Communication primitives (paper §2.1). Each is implemented with real
// message traffic over the Fabric and charges exactly the rounds it uses.
// They assume the congested-clique reading of bandwidth: at most pairWords
// words between any ordered worker pair per round. MPC fabrics enforce
// their own (space) limits on top.
//
// All primitives stage their traffic as flat frames and run one of the
// three round kinds. Rounds whose receivers learn the payload without
// storing anything (a broadcast's words, an owner's summed elements, a
// gather's offsets) are charge-only rounds (SendFrames). AggregateVec's
// first round on an ungrouped fabric, whose owners only add up what they
// receive, is a combining round (SumFrames): the fabric sums the frames
// during delivery. The levels of the grouped reduction tree and
// GatherMany's spread and delivery rounds, whose receivers store each
// frame where it names, are placing rounds (PlaceFrames): the fabric hands
// every frame to the primitive's store during delivery.
// Broadcast, AggregateVec and GatherMany are VecScratch methods: a grouped
// broadcast walks its tree down the same retained representative tables
// the grouped aggregation builds, so a warm broadcast allocates no
// per-worker table and reads no map.
//
// The multi-target gather below is the restricted routing pattern the
// coloring algorithm needs (per-sender blocks of ≤ O(𝔫) words, per-target
// totals of O(𝔫) words). It is the special case of Lenzen's constant-round
// routing [15] for which a simple rank-based two-phase schedule is exact:
// word of global per-target rank r relays through intermediate r mod 𝔫, so
// every (sender, intermediate) pair carries at most one record per spread
// round and every (intermediate, target) pair one frame per delivery round.

// Grouped is an optional Fabric extension: workers sharing a group (an MPC
// machine) exchange data for free, so collective primitives combine
// group-locally before crossing machine boundaries — exactly how MapReduce
// primitives (Lemma 2.1) respect the space bound.
type Grouped interface {
	GroupOf(w int) int
}

// Capacitated is an optional Fabric extension reporting the per-entity
// space budget in words (MPC's 𝔰); collective primitives on grouped
// fabrics shape their reduction trees to it, mirroring Lemma 2.1's
// O(1)-round tree of fan-in 𝔰^Θ(1).
type Capacitated interface {
	CapacityWords() int64
}

// maxGroupID scans the group ids so flat tables can replace maps (group ids
// are machine indices on every in-tree fabric, so the scan is cheap and the
// tables stay O(workers)).
func maxGroupID(n int, g Grouped) int {
	maxG := 0
	for w := 0; w < n; w++ {
		if id := g.GroupOf(w); id > maxG {
			maxG = id
		}
	}
	return maxG
}

// Broadcast sends words from worker src to all workers. For payloads of at
// most pairWords words it takes 1 round; for payloads up to 𝔫·pairWords it
// takes 2 (distribute chunks, then all-to-all chunk exchange). On grouped
// fabrics only group representatives are addressed, down a fan-out-bounded
// tree; members share locally. A grouped fabric's representative tables
// are drawn from (and retained in) ws, so a warm broadcast allocates no
// per-worker table. words is read during the rounds' staging.
func (ws *VecScratch) Broadcast(f Fabric, pairWords int, src int, words []uint64) error {
	n := f.Workers()
	if g, grouped := f.(Grouped); grouped {
		ws.repTables(n, g)
		return ws.broadcastTree(f, src, words)
	}
	if len(words) <= pairWords {
		return SendFrames(f, func(w int, sb *SendBuf) {
			if w == src {
				copy(fanOthers(sb, n, src, len(words)), words)
			}
		})
	}
	if len(words) > n*pairWords {
		return fmt.Errorf("fabric: broadcast payload %d exceeds %d*%d", len(words), n, pairWords)
	}
	// Round 1: distribute chunk j to worker j.
	chunks := make([][]uint64, n)
	for i := 0; i < len(words); i += pairWords {
		end := i + pairWords
		if end > len(words) {
			end = len(words)
		}
		chunks[i/pairWords] = words[i:end]
	}
	if err := SendFrames(f, func(w int, sb *SendBuf) {
		if w != src {
			return
		}
		for t, ch := range chunks {
			if len(ch) == 0 || t == src {
				continue
			}
			sb.Put(t, ch...)
		}
	}); err != nil {
		return err
	}
	// Round 2: every chunk holder sends its chunk to everyone.
	return SendFrames(f, func(w int, sb *SendBuf) {
		if ch := chunks[w]; len(ch) > 0 {
			copy(fanOthers(sb, n, w, len(ch)), ch)
		}
	})
}

// fanOthers stages one fan frame from worker self to each of the other
// n−1 workers in ascending order, and returns its k-word payload for the
// caller to fill before its next frame.
func fanOthers(sb *SendBuf, n, self, k int) []uint64 {
	payload, dests := sb.BeginFan(n-1, k)
	for t := range self {
		dests[t] = int32(t)
	}
	for t := self + 1; t < n; t++ {
		dests[t-1] = int32(t)
	}
	sb.CommitFan(n - 1)
	return payload
}

// VecScratch holds the flat worker/group tables, accumulator and receive
// slabs, and reduction-tree state behind AggregateVec and Broadcast, and
// the tables and slabs behind GatherMany. The zero value is ready for use; solver
// sessions retain one across solves (via derand.Workspace / the core and
// lowspace workspaces) so the grouped aggregation and broadcast paths and
// the gather run without per-call map, table, accumulator or slab
// allocation in steady state. AggregateVec's totals are freshly allocated
// on every call; GatherMany's result aliases the scratch.
type VecScratch struct {
	reps    []int   // group representatives, ascending worker order
	slot    []int32 // worker -> dense group slot (valid for representatives)
	gdense  []int32 // group id -> dense slot + 1 (0 = unseen)
	moff    []int32 // CSR offsets into members, per slot (len slots+1)
	mcur    []int32 // CSR fill cursors
	members []int32 // group members, slot-major, ascending worker order
	acc     []int64 // slots×vlen accumulator slab
	recv    []int64 // slots×vlen reduction-level receive windows, by sender slot
	vlen    int     // the running grouped aggregate's vector length
	have    []bool  // worker -> holds the result (tree distribution)
	levels  []int   // flattened reduction-tree levels (level 0 = reps)
	loff    []int32 // per-level offsets into levels
	sendTo  []int32 // worker -> this level's block leader + 1 (0 = not a member)
	blockAt []int32 // worker -> this level's block start in cur + 1 (0 = not a leader)

	// The lowest worker whose local vector had the wrong length, found
	// during parallel staging. It lives here, not in a local the staging
	// closure captures, so a call allocates nothing for it.
	badMu sync.Mutex
	bad   *VecLenError

	gather gatherScratch
}

// Slice and SenderBlock sizes in 64-bit words, for MemoryWords.
const (
	sliceWords       = int64(unsafe.Sizeof([]uint64(nil)) / 8)
	senderBlockWords = int64(unsafe.Sizeof(SenderBlock{}) / 8)
)

// MemoryWords reports the scratch's retained footprint in 64-bit words:
// the aggregation's tables, accumulators and receive windows and the
// gather's tables and slabs, at their capacities.
func (ws *VecScratch) MemoryWords() int64 {
	g := &ws.gather
	words := int64(cap(ws.reps) + cap(ws.acc) + cap(ws.recv) + cap(ws.levels) + cap(ws.have)/8 +
		cap(g.rank) + cap(g.goff) + cap(g.hold) + cap(g.gath))
	words += int64(cap(g.block))*sliceWords + int64(cap(g.blocks))*senderBlockWords
	i32 := cap(ws.slot) + cap(ws.gdense) + cap(ws.moff) + cap(ws.mcur) + cap(ws.members) +
		cap(ws.loff) + cap(ws.sendTo) + cap(ws.blockAt) + cap(g.target) + cap(g.order) + cap(g.boff)
	return words + int64(i32)/2
}

// VecLenError reports a local vector handed to AggregateVec whose length
// is not the aggregate's.
type VecLenError struct {
	Worker    int
	Len, Want int
}

func (e *VecLenError) Error() string {
	return fmt.Sprintf("fabric: worker %d's local vector has length %d, want %d", e.Worker, e.Len, e.Want)
}

// AggregateVec computes the element-wise sum over all workers of the
// length-vlen int64 vector local(w), and makes the result known to all
// workers, in 2 rounds. Element j is owned by the j mod R-th group
// representative (R = number of groups; every worker on an ungrouped
// fabric); representatives combine their group's contributions locally
// before sending — the machine-local combining step that keeps MPC traffic
// within 𝔰 — then owners sum and broadcast their elements back to the
// representatives. On ungrouped fabrics this requires
// vlen ≤ workers·pairWords.
//
// On grouped fabrics local is invoked serially (callers may share scratch
// across invocations); on ungrouped fabrics it runs inside the round's
// parallel staging and must be safe for concurrent calls with distinct w.
// A local vector whose length is not vlen fails the call with a
// *VecLenError naming the lowest such worker. The internal tables are
// drawn from (and retained in) ws.
func (ws *VecScratch) AggregateVec(f Fabric, pairWords int, vlen int, local func(w int) []int64) ([]int64, error) {
	n := f.Workers()
	if g, ok := f.(Grouped); ok {
		// Space-bounded path: machine-local combine, then a fan-in-bounded
		// reduction tree over representatives (Lemma 2.1 style).
		ws.groupTables(n, g)
		return ws.aggregateTree(f, vlen, func(slot int, combined []int64) error {
			for _, member := range ws.members[ws.moff[slot]:ws.moff[slot+1]] {
				vals := local(int(member))
				if len(vals) != vlen {
					return &VecLenError{Worker: int(member), Len: len(vals), Want: vlen}
				}
				for j, x := range vals {
					combined[j] += x
				}
			}
			return nil
		})
	}

	// Ungrouped path: every worker is a representative (r = n); element j is
	// owned by worker j mod n, so owner o holds slots(o) elements.
	r := n
	perOwner := (vlen + r - 1) / r
	if perOwner > pairWords {
		return nil, fmt.Errorf("fabric: aggregate vector length %d exceeds %d*%d", vlen, n, pairWords)
	}
	slots := func(o int) int {
		if o >= vlen {
			return 0
		}
		return (vlen-o-1)/r + 1
	}

	// Round 1, a combining round: every worker ships, per owner, its
	// contribution to that owner's elements; its own elements are summed in
	// place. res is indexed like the result (element j at res[j]); owner o's
	// slot s is j = o+s·r, exactly where SumFrames adds word s of a frame
	// addressed to o. A worker whose vector has the wrong length stages
	// nothing, and the lowest such worker is reported after the round.
	res := make([]int64, vlen)
	owners := r
	if owners > vlen {
		owners = vlen
	}
	ws.bad = nil
	err := SumFrames(f, res, func(w int, sb *SendBuf) {
		vals := local(w)
		if len(vals) != vlen {
			ws.badMu.Lock()
			if ws.bad == nil || w < ws.bad.Worker {
				ws.bad = &VecLenError{Worker: w, Len: len(vals), Want: vlen}
			}
			ws.badMu.Unlock()
			return
		}
		sb.Reserve(owners, vlen)
		for o := 0; o < r; o++ {
			k := slots(o)
			if k == 0 {
				break // owners past vlen hold nothing
			}
			if o == w {
				// Own elements: no self-message, accumulated directly. Only
				// worker o touches res[o+s·r], so this is race-free under
				// parallel staging.
				for s := 0; s < k; s++ {
					res[o+s*r] += vals[o+s*r]
				}
				continue
			}
			payload := sb.Begin(o, k)
			for s := 0; s < k; s++ {
				payload[s] = uint64(vals[o+s*r])
			}
		}
	})
	if ws.bad != nil {
		return nil, ws.bad
	}
	if err != nil {
		return nil, err
	}
	// Round 2: each owner broadcasts its summed elements to all workers, as
	// one fan frame.
	if err := SendFrames(f, func(w int, sb *SendBuf) {
		k := slots(w)
		if w >= r || k == 0 {
			return
		}
		payload := fanOthers(sb, n, w, k)
		for s := range payload {
			payload[s] = uint64(res[w+s*r])
		}
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// broadcastTree delivers words from src to every group representative via
// a fan-out-bounded tree (members of each group then share locally, for
// free). O(1) rounds for constant tree depth. It reads the representative
// tables repTables built.
//
// Level by level over the representatives in index order: at the level
// with reach r, rep j holds the payload iff j < r, and it serves reps
// [max(r, j·branch), min((j+1)·branch, R)) — each rep i ≥ r below
// r·branch is served by rep i/branch. A holder finds its index through
// ws.slot, so each staging callback costs O(1) plus its frames.
func (ws *VecScratch) broadcastTree(f Fabric, src int, words []uint64) error {
	reps := ws.reps
	r := len(reps)
	branch := branchFactor(f, len(words))
	// Round 0: src hands the payload to the representative tree root
	// (skipped when src is the root).
	root := reps[0]
	if src != root {
		if err := SendFrames(f, func(w int, sb *SendBuf) {
			if w != src {
				return
			}
			sb.Put(root, words...)
		}); err != nil {
			return err
		}
	}
	for reach := 1; reach < r; reach *= branch {
		if err := SendFrames(f, func(w int, sb *SendBuf) {
			// slot is stale for non-representatives; reps[j] == w rejects
			// them.
			j := int(ws.slot[w])
			if j >= reach || reps[j] != w {
				return
			}
			for i := max(reach, j*branch); i < min((j+1)*branch, r); i++ {
				sb.Put(reps[i], words...)
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// window returns representative w's vlen-word window of an acc- or
// recv-shaped slab.
func (ws *VecScratch) window(slab []int64, w int) []int64 {
	s := int(ws.slot[w]) * ws.vlen
	return slab[s : s+ws.vlen]
}

// branchFactor picks the reduction-tree fan-in for a grouped fabric so one
// level's inbound traffic (fan-in · vlen words) stays within half the
// capacity.
func branchFactor(f Fabric, vlen int) int {
	b := 8
	if c, ok := f.(Capacitated); ok {
		b = int(c.CapacityWords() / int64(2*vlen))
	}
	if b < 2 {
		b = 2
	}
	return b
}

// repTables (re)builds the flat representative tables for a grouped
// fabric: reps in ascending worker order, and each group's dense slot in
// first-appearance (= rep) order, as gdense by group id and as slot by
// representative.
func (ws *VecScratch) repTables(n int, g Grouped) {
	ws.gdense = grow(ws.gdense, maxGroupID(n, g)+1)
	clear(ws.gdense)
	ws.slot = grow(ws.slot, n)
	reps := ws.reps[:0]
	for w := 0; w < n; w++ {
		if ws.gdense[g.GroupOf(w)] == 0 {
			ws.gdense[g.GroupOf(w)] = int32(len(reps)) + 1
			ws.slot[w] = int32(len(reps))
			reps = append(reps, w)
		}
	}
	ws.reps = reps
}

// groupTables (re)builds the representative tables and the member list as
// a CSR keyed by slot, members ascending within each group — the exact
// iteration order the old map-based path produced.
func (ws *VecScratch) groupTables(n int, g Grouped) {
	ws.repTables(n, g)
	r := len(ws.reps)
	ws.moff = grow(ws.moff, r+1)
	clear(ws.moff)
	for w := 0; w < n; w++ {
		ws.moff[ws.gdense[g.GroupOf(w)]]++ // slot+1: counts land past the offset
	}
	for s := 0; s < r; s++ {
		ws.moff[s+1] += ws.moff[s]
	}
	ws.mcur = grow(ws.mcur, r)
	copy(ws.mcur, ws.moff[:r])
	ws.members = grow(ws.members, n)
	for w := 0; w < n; w++ {
		s := ws.gdense[g.GroupOf(w)] - 1
		ws.members[ws.mcur[s]] = int32(w)
		ws.mcur[s]++
	}
}

// aggregateTree sums length-vlen vectors across group representatives via a
// fan-in-bounded reduction tree, then redistributes the result down the
// same tree — Lemma 2.1's constant-round, space-respecting pattern.
// combineInto fills slot's machine-locally combined vector into a zeroed
// slab window; its error stops the aggregate before any round.
//
// Each reduction level is a placing round: a block member's frame lands in
// that member's own window of the recv slab (indexed by the sender's
// representative slot, since a leader hears from several members and
// frames of different sender blocks are placed concurrently), and after
// the round each leader adds its members' windows into its accumulator.
func (ws *VecScratch) aggregateTree(f Fabric, vlen int, combineInto func(slot int, combined []int64) error) ([]int64, error) {
	reps := ws.reps
	r := len(reps)
	branch := branchFactor(f, vlen)
	ws.acc = grow(ws.acc, r*vlen)
	for s := 0; s < r; s++ {
		dst := ws.acc[s*vlen : (s+1)*vlen]
		clear(dst)
		if err := combineInto(s, dst); err != nil {
			return nil, err
		}
	}
	ws.vlen = vlen
	ws.recv = grow(ws.recv, r*vlen)
	store := func(from, _ int, payload []uint64) {
		dst := ws.window(ws.recv, from)
		for k, x := range payload {
			dst[k] = int64(x)
		}
	}
	// Reduce up: levels of blocks of `branch` representatives, flattened
	// into one levels buffer with per-level offsets. Per-level block
	// membership is precomputed into worker-indexed tables so each staging
	// callback is O(1) per worker — scanning cur from every worker made the
	// reduction O(workers·reps) per level, a dominant term at large n.
	ws.levels = append(ws.levels[:0], reps...)
	ws.loff = append(ws.loff[:0], 0, int32(len(ws.levels)))
	ws.sendTo = grow(ws.sendTo, f.Workers())
	ws.blockAt = grow(ws.blockAt, f.Workers())
	for {
		lv := len(ws.loff) - 2
		cur := ws.levels[ws.loff[lv]:ws.loff[lv+1]]
		if len(cur) <= 1 {
			break
		}
		for i := 0; i < len(cur); i += branch {
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				ws.sendTo[cur[j]] = int32(cur[i]) + 1
			}
		}
		err := PlaceFrames(f, store, func(w int, sb *SendBuf) {
			// Block members (non-leaders) send their accumulator to the
			// block leader.
			if t := ws.sendTo[w]; t != 0 {
				payload := sb.Begin(int(t-1), vlen)
				for k, x := range ws.window(ws.acc, w) {
					payload[k] = uint64(x)
				}
			}
		})
		for i := 0; i < len(cur); i += branch {
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				ws.sendTo[cur[j]] = 0
			}
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(cur); i += branch {
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			leader := cur[i]
			dst := ws.window(ws.acc, leader)
			for j := i + 1; j < end; j++ {
				for k, x := range ws.window(ws.recv, cur[j]) {
					dst[k] += x
				}
			}
			ws.levels = append(ws.levels, leader)
		}
		ws.loff = append(ws.loff, int32(len(ws.levels)))
	}
	// Distribute down: leaders push the final vector to their blocks.
	root := ws.levels[len(ws.levels)-1]
	result := append([]int64(nil), ws.window(ws.acc, root)...)
	ws.have = grow(ws.have, f.Workers())
	clear(ws.have)
	ws.have[root] = true
	for li := len(ws.loff) - 3; li >= 0; li-- {
		cur := ws.levels[ws.loff[li]:ws.loff[li+1]]
		for i := 0; i < len(cur); i += branch {
			ws.blockAt[cur[i]] = int32(i) + 1
		}
		err := SendFrames(f, func(w int, sb *SendBuf) {
			if !ws.have[w] {
				return
			}
			bi := ws.blockAt[w]
			if bi == 0 {
				return
			}
			i := int(bi - 1)
			end := i + branch
			if end > len(cur) {
				end = len(cur)
			}
			for j := i + 1; j < end; j++ {
				payload := sb.Begin(cur[j], vlen)
				for k, x := range result {
					payload[k] = uint64(x)
				}
			}
		})
		for i := 0; i < len(cur); i += branch {
			ws.blockAt[cur[i]] = 0
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(cur); i += branch {
			if ws.have[cur[i]] {
				end := i + branch
				if end > len(cur) {
					end = len(cur)
				}
				for j := i + 1; j < end; j++ {
					ws.have[cur[j]] = true
				}
			}
		}
	}
	return result, nil
}

// SenderBlock is one sender's contribution to a gather target, delivered in
// the sender's original word order.
type SenderBlock struct {
	From  int
	Words []uint64
}

// Gathered is GatherMany's result, a CSR over targets: target t's blocks
// are Blocks[Off[t]:Off[t+1]], ascending by sender, and a target no worker
// sent to has none. It aliases the VecScratch it came from and is valid
// until that scratch's next GatherMany.
type Gathered struct {
	Off    []int32 // len workers+1
	Blocks []SenderBlock
}

// To returns target t's blocks, ascending by sender.
func (g Gathered) To(t int) []SenderBlock { return g.Blocks[g.Off[t]:g.Off[t+1]] }

// gatherScratch is GatherMany's retained state. hold and gath are both
// indexed by (target, rank) as goff[target]+rank: hold is every
// intermediate's memory (intermediate r mod n keeps rank r), gath every
// target's.
type gatherScratch struct {
	target []int32       // per worker: its target, -1 when it sends nothing
	block  [][]uint64    // per worker: its payload block (cleared on return)
	rank   []int         // per worker: its block's first per-target rank
	goff   []int         // per target: its first slot in hold and gath
	order  []int32       // targets that receive words, largest total first
	hold   []uint64      // the spread's records at the intermediates
	gath   []uint64      // the delivered words at the targets
	boff   []int32       // the result's per-target offsets
	blocks []SenderBlock // the result's blocks, target-major
}

// GatherMany routes each worker's payload block to its designated target
// worker. payload(w) returns (target, words); a negative target or an empty
// block means worker w contributes nothing. Multiple targets may be
// gathered to concurrently. The result is a CSR over targets, each
// target's blocks sorted by sender.
//
// payload is invoked serially, in ascending worker order, so callers may
// share scratch across invocations. The words it returns are read during
// the gather's rounds and must not change until GatherMany returns; a
// caller may carve every block out of one retained slab it appends to,
// since an append never writes inside a block already handed out. The
// result's words live in ws, not in the caller's blocks: they stay valid
// until ws's next GatherMany. After an error ws's gather state is
// unspecified and there is no result.
//
// Round cost: 2 (offset computation via worker 0) + ⌈maxBlock/𝔫⌉ spread
// rounds + ⌈maxTotal/(𝔫·⌊pairWords/2⌋)⌉ delivery rounds, where maxBlock is
// the longest block and maxTotal the most words one target receives. That
// is O(1) whenever every block is O(𝔫) words and every target receives
// O(𝔫) words — the regime Corollary 3.10 and Lemma 3.14 guarantee for the
// coloring algorithm. The spread and delivery rounds are placing rounds
// (PlaceFrames): each frame's words land in ws's slabs at the (target,
// rank) the frame names.
func (ws *VecScratch) GatherMany(f Fabric, pairWords int, payload func(w int) (int, []uint64)) (Gathered, error) {
	n := f.Workers()
	perRound := pairWords / 2 // (rank, word) records per delivery frame
	if perRound < 1 {
		return Gathered{}, fmt.Errorf("fabric: pairWords %d too small for gather delivery", pairWords)
	}
	g := &ws.gather
	g.target = grow(g.target, n)
	g.block = grow(g.block, n)
	defer clear(g.block) // hold no caller memory past the call
	target, block := g.target, g.block
	maxBlock := 0
	for w := 0; w < n; w++ {
		t, words := payload(w)
		if t >= n {
			return Gathered{}, fmt.Errorf("fabric: gather target %d out of range", t)
		}
		if t < 0 || len(words) == 0 {
			t, words = -1, nil
		}
		target[w], block[w] = int32(t), words
		maxBlock = max(maxBlock, len(words))
	}

	// Rounds 1-2: worker 0 assigns each sender a rank offset within its
	// target's gather space. Each sender reports (target, count) — 2 words;
	// worker 0 replies with the offset — 1 word.
	if err := SendFrames(f, func(w int, sb *SendBuf) {
		if w != 0 && target[w] >= 0 {
			sb.Put(0, uint64(target[w]), uint64(len(block[w])))
		}
	}); err != nil {
		return Gathered{}, err
	}
	// Worker 0's local computation over the reported counts: each sender's
	// rank offset, each target's total (summed at goff[t+1], then prefixed
	// into slab offsets), and the receiving targets.
	g.rank = grow(g.rank, n)
	g.goff = grow(g.goff, n+1)
	rank, goff := g.rank, g.goff
	clear(goff)
	for w, t := range target {
		if t >= 0 {
			rank[w] = goff[t+1]
			goff[t+1] += len(block[w])
		}
	}
	order := g.order[:0]
	for t := 0; t < n; t++ {
		if goff[t+1] > 0 {
			order = append(order, int32(t))
		}
		goff[t+1] += goff[t]
	}
	total := func(t int32) int { return goff[t+1] - goff[t] }
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(total(b), total(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	g.order = order
	if err := SendFrames(f, func(w int, sb *SendBuf) {
		if w != 0 {
			return
		}
		for v := 1; v < n; v++ {
			if target[v] >= 0 {
				sb.Put(v, uint64(rank[v]))
			}
		}
	}); err != nil {
		return Gathered{}, err
	}

	// Phase 1: spread. Word k of sender w has per-target rank r = rank[w]+k
	// and relays through intermediate r mod n as a (target, rank, word)
	// frame, which lands in hold at (target, rank). Within one sub-round a
	// sender touches each intermediate at most once (records of one
	// sub-round have distinct ranks mod n).
	g.hold = grow(g.hold, goff[n])
	g.gath = grow(g.gath, goff[n])
	hold, gath := g.hold, g.gath
	spread := func(_, _ int, p []uint64) { hold[goff[p[0]]+int(p[1])] = p[2] }
	for lo := 0; lo < maxBlock; lo += n {
		if err := PlaceFrames(f, spread, func(w int, sb *SendBuf) {
			hi := min(lo+n, len(block[w]))
			if hi <= lo {
				return
			}
			sb.Reserve(hi-lo, 3*(hi-lo))
			t := target[w]
			base, r := goff[t], rank[w]+lo
			inter := r % n
			for _, x := range block[w][lo:hi] {
				if inter == w {
					hold[base+r] = x
				} else {
					p := sb.Begin(inter, 3)
					p[0], p[1], p[2] = uint64(t), uint64(r), x
				}
				r++
				if inter++; inter == n {
					inter = 0
				}
			}
		}); err != nil {
			return Gathered{}, err
		}
	}

	// Phase 2: delivery. Intermediate i holds target t's ranks i, i+n, …
	// below t's total. Delivery round c ships chunk c of that run — its
	// ranks from i+c·perRound·n on, at most perRound of them — as one frame
	// of (rank, word) pairs, and the target stores each word at its rank.
	// Targets are visited largest total first, so an intermediate stops at
	// the first target whose run it has already drained.
	deliver := func(_, to int, p []uint64) {
		base := goff[to]
		for j := 0; j+1 < len(p); j += 2 {
			gath[base+int(p[j])] = p[j+1]
		}
	}
	maxTotal := 0
	if len(order) > 0 {
		maxTotal = total(order[0])
	}
	for c0 := 0; c0 < maxTotal; c0 += perRound * n {
		if err := PlaceFrames(f, deliver, func(w int, sb *SendBuf) {
			first := c0 + w // the chunk's lowest rank
			for _, t := range order {
				tot := total(t)
				if tot <= first {
					break
				}
				base, k := goff[t], min(perRound, (tot-first+n-1)/n)
				if int(t) == w {
					for r := first; r < first+k*n; r += n {
						gath[base+r] = hold[base+r]
					}
					continue
				}
				p := sb.Begin(int(t), 2*k)
				for j, r := 0, first; j < 2*k; j, r = j+2, r+n {
					p[j], p[j+1] = uint64(r), hold[base+r]
				}
			}
		}); err != nil {
			return Gathered{}, err
		}
	}

	// The result, a CSR over targets. Counting senders at boff[t+2] and
	// prefixing leaves boff[t+1] at target t's first entry; filling through
	// it as a cursor moves it to t's end, so boff[:n+1] is the CSR offsets.
	g.boff = grow(g.boff, n+2)
	boff := g.boff
	clear(boff)
	for _, t := range target {
		if t >= 0 {
			boff[t+2]++
		}
	}
	for t := 2; t < n+2; t++ {
		boff[t] += boff[t-1]
	}
	g.blocks = grow(g.blocks, int(boff[n+1]))
	for w, t := range target {
		if t < 0 {
			continue
		}
		lo := goff[t] + rank[w]
		hi := lo + len(block[w])
		g.blocks[boff[t+1]] = SenderBlock{From: w, Words: gath[lo:hi:hi]}
		boff[t+1]++
	}
	return Gathered{Off: boff[:n+1], Blocks: g.blocks}, nil
}
