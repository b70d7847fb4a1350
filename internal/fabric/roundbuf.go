package fabric

import (
	"fmt"
	"slices"
	"unsafe"
)

// Flat-buffer round fabric: instead of materializing one Msg (and one Words
// slice) per message per round, a round's outgoing traffic is staged in
// per-worker contiguous []uint64 arenas (one per sender, so the sender is
// implied by the arena) as length-prefixed frames of two shapes:
//
//	single:  header, payload...
//	fan:     header, payload..., destinations (packed int32s, two a word)
//
// A single frame's header packs its destination in the low half and its
// payload length in the high half (see packHeader). A fan frame carries one
// payload to d receivers: its header sets fanFlag and packs d in the low
// half, and the payload is staged once, however many receivers read it.
// Delivery validates and charges the frames in sender blocks (see Deliver),
// expanding a fan frame into one frame per destination, then sums or places
// them when the round's Sink asks for it; nothing is copied out of the
// arenas. Each fabric owns one RoundBuffer for life and resets it every
// round, so the arenas keep their capacity and the steady-state round
// executes with no heap allocation on the fabric side.

// frameHeader is the number of header words per frame. The sender is
// implied by whose arena a frame sits in, and destination and payload
// length both fit in 32 bits, so one word carries the whole header:
// destination in the low half (two's complement, so out-of-range negatives
// survive the round trip to be rejected at delivery), payload word count in
// the high half. Announce-style rounds move 1-word payloads, so header
// width is the dominant arena traffic — 1 word instead of 3 halves it.
const frameHeader = 1

// fanFlag sets the sign bit of both halves of a fan frame's header. The
// word's sign tells a fan frame from a single frame, whose payload length
// stays below 2³¹, and the low half's sign puts a fan frame's destination
// out of range, so delivery's range check on a single frame's destination
// is also its test for a fan frame.
const fanFlag = 1<<63 | 1<<31

func packHeader(to, n int) uint64 {
	return uint64(uint32(int32(to))) | uint64(uint32(n))<<32
}

func unpackHeader(h uint64) (to, n int) {
	return int(int32(uint32(h))), int(h >> 32)
}

// packFan is a fan frame's header: d destinations, an n-word payload.
func packFan(d, n int) uint64 {
	return fanFlag | packHeader(d, n)
}

// fanDests views the d destinations packed from the start of w.
func fanDests(w []uint64, d int) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(w))), d)
}

// frameAt decodes the frame whose header is buf[i]: a single frame's
// destination to and a nil fan, or a fan frame's destinations fan; the end
// of its payload, buf[i+frameHeader:end]; and the index of the next frame.
func frameAt(buf []uint64, i int) (to int, fan []int32, end, next int) {
	h := buf[i]
	d, n := unpackHeader(h &^ fanFlag) // d counts a fan frame's destinations
	end = i + frameHeader + n
	if int64(h) >= 0 {
		return int(int32(uint32(h))), nil, end, end
	}
	return 0, fanDests(buf[end:], d), end, end + (d+1)/2
}

// SendBuf stages one worker's outgoing frames for one round in a contiguous
// arena. It is handed to staging callbacks by FrameRound; the zero value is
// ready for use after reset.
type SendBuf struct {
	buf   []uint64
	words int64 // payload words charged: a fan frame's once per destination
	// gap is the arena words fan frames save over single frames, and fan
	// the open fan frame's header index + 1 (0 when none is open). Both
	// are int32 to keep SendBuf at 40 bytes, one per worker.
	gap, fan int32
}

func (sb *SendBuf) reset() {
	sb.buf = sb.buf[:0]
	sb.words, sb.gap, sb.fan = 0, 0, 0
}

// Begin reserves a frame addressed to `to` with an n-word payload and
// returns the payload slice for the caller to fill in place. The slice
// must be filled before the next Begin, Put or BeginFan on the same
// SendBuf: a later reservation may grow the arena and reallocate it,
// detaching earlier payload slices. Destination validation happens at
// delivery, in staging order.
func (sb *SendBuf) Begin(to, n int) []uint64 {
	sb.buf = append(sb.buf, packHeader(to, n))
	l := len(sb.buf)
	if cap(sb.buf)-l < n {
		grown := make([]uint64, l, 2*(l+n)+64)
		copy(grown, sb.buf)
		sb.buf = grown
	}
	sb.buf = sb.buf[:l+n]
	sb.words += int64(n)
	return sb.buf[l : l+n]
}

// Put stages one message. Passing an existing slice with `words...` does
// not copy it to the heap; the payload is copied into the arena.
func (sb *SendBuf) Put(to int, words ...uint64) {
	copy(sb.Begin(to, len(words)), words)
}

// BeginFan opens a fan frame: one n-word payload for up to d receivers,
// staged once. It returns the payload, for the caller to fill in place,
// and room for d destinations. The caller writes the receivers into
// dests[:k], in the order they are to be charged, and commits the frame
// with CommitFan(k) before its next Begin, Put or BeginFan on the same
// SendBuf; the payload, like Begin's, must be filled before then too.
// Delivery treats the committed frame exactly as the k frames
// Put(dests[j], payload...), j = 0, …, k−1, staged in that order: the same
// checks in the same order, the same charges, sums and errors. A placing
// round hands each of them the same payload slice.
func (sb *SendBuf) BeginFan(d, n int) (payload []uint64, dests []int32) {
	if sb.fan != 0 {
		panic("fabric: BeginFan with a fan frame open")
	}
	l, m := len(sb.buf), frameHeader+n+(d+1)/2
	if cap(sb.buf)-l < m {
		// Double what is staged and add exactly this frame: a fan frame is
		// usually its sender's only frame of the round, and Begin's slack
		// would stay unused in every such arena (list-lowspace's peak RSS
		// read 3–4 MB higher with it).
		grown := make([]uint64, l, 2*l+m)
		copy(grown, sb.buf)
		sb.buf = grown
	}
	sb.buf = sb.buf[:l+m]
	sb.buf[l] = packFan(d, n)
	sb.fan = int32(l + 1)
	p := l + frameHeader
	return sb.buf[p : p+n : p+n], fanDests(sb.buf[p+n:], d)
}

// CommitFan closes the fan frame BeginFan opened with its first k
// receivers, 0 ≤ k ≤ d. With k = 0 the frame is dropped: nothing is
// staged, as when no Put is made.
func (sb *SendBuf) CommitFan(k int) {
	l := int(sb.fan) - 1
	if l < 0 {
		panic("fabric: CommitFan without an open fan frame")
	}
	d, n := unpackHeader(sb.buf[l] &^ fanFlag)
	if len(sb.buf) != l+frameHeader+n+(d+1)/2 {
		panic("fabric: frame staged while a fan frame is open")
	}
	if k < 0 || k > d {
		panic(fmt.Sprintf("fabric: fan frame committed with %d of %d receivers", k, d))
	}
	sb.fan = 0
	if k == 0 {
		sb.buf = sb.buf[:l]
		return
	}
	sb.buf[l] = packFan(k, n)
	sb.buf = sb.buf[:l+frameHeader+n+(k+1)/2]
	sb.words += int64(k) * int64(n)
	sb.gap += int32(k*(frameHeader+n) - (frameHeader + n + (k+1)/2))
}

// Fan stages words to every receiver in to, in order: the frames of
// Put(t, words...) for each t in to, staged as one fan frame.
func (sb *SendBuf) Fan(to []int32, words ...uint64) {
	payload, dests := sb.BeginFan(len(to), len(words))
	copy(payload, words)
	copy(dests, to)
	sb.CommitFan(len(to))
}

// staged is the arena length the sender's frames would take staged one
// by one, each fan frame as one single frame per destination: Deliver's
// measure of a sender's delivery work.
func (sb *SendBuf) staged() int { return len(sb.buf) + int(sb.gap) }

// Reserve pre-grows the arena so the next `words` payload words (plus
// frame headers) stage without any reallocation checks succeeding
// mid-loop. Primitives that know a round's fixed frame shape call it once
// up front, so the per-frame Begin capacity test never triggers a copy.
func (sb *SendBuf) Reserve(frames, words int) {
	need := len(sb.buf) + frames*frameHeader + words
	if cap(sb.buf) < need {
		grown := make([]uint64, len(sb.buf), need+need/2)
		copy(grown, sb.buf)
		sb.buf = grown
	}
}

// Sink is a round's request as a backend holds it until its next round
// and hands it to Deliver: what delivery does with the validated frames.
// The zero value is a charge-only round, whose receivers learn the state
// from the simulation directly: the frames are validated and charged, and
// nothing else happens to them.
type Sink struct {
	// Sum, when non-nil, makes the round a combining round: word s of every
	// frame addressed to worker d is added into Sum[d+s·n] (n workers) as a
	// wrapping int64 add. A frame that would land past len(Sum) fails the
	// round with a *SumError.
	Sum []int64
	// Place, when non-nil, makes the round a placing round: once the whole
	// round has passed validation, every frame is handed to Place(from, to,
	// payload), where payload aliases the staging arena and is valid until
	// the next round; a fan frame's receivers share one payload slice, so
	// Place must not write to it. One sender's frames are placed in staging
	// order by one goroutine; frames of different senders may be placed
	// concurrently.
	Place func(from, to int, payload []uint64)
}

// SendFrames runs one charge-only round: the receivers learn the
// transmitted state from the simulation directly, and the round exists so
// that its traffic is charged to the ledger and checked against the
// model's limits.
func SendFrames(f Fabric, stage func(w int, sb *SendBuf)) error {
	f.SetSink(Sink{})
	_, err := f.FrameRound(stage)
	return err
}

// SumFrames runs one combining round: the frames travel, are validated and
// are charged as in any round, and the fabric adds them into sum during
// delivery. Word s of a frame addressed to worker d is added into
// sum[d+s·n], n = f.Workers(), as a wrapping int64 add, so element j
// gathers every frame sent to its owner j mod n. Wrapping sums do not
// depend on order, so the result is the same at every pool width. A frame
// that would land past len(sum) fails the round with a *SumError and
// leaves sum as it was.
func SumFrames(f Fabric, sum []int64, stage func(w int, sb *SendBuf)) error {
	f.SetSink(Sink{Sum: sum})
	_, err := f.FrameRound(stage)
	return err
}

// PlaceFrames runs one placing round: the frames travel, are validated and
// are charged as in any round, and the fabric hands every frame to
// place(from, to, payload) during delivery — the shape of a round whose
// receivers only store what they get at positions the frames name. place
// is called once per frame, in no particular order, and must be safe for
// concurrent calls on frames of different senders; payload is valid until
// the next round.
//
// Error contract: a round that fails validation (an out-of-range
// destination, a broken pair budget) places nothing. A backend that
// rejects a validated round afterwards (an MPC space error) may have
// placed some or all of its frames, so after any error the contents of
// place's destination are unspecified.
func PlaceFrames(f Fabric, place func(from, to int, payload []uint64), stage func(w int, sb *SendBuf)) error {
	f.SetSink(Sink{Place: place})
	_, err := f.FrameRound(stage)
	return err
}

// RouteError reports a frame rejected at delivery: an out-of-range
// destination, or (when a pair budget is enforced) a per-ordered-pair word
// total exceeding it. Backends translate it into their model-specific error
// types.
type RouteError struct {
	OutOfRange bool
	From, To   int
	Words      int // running (From,To) word total at the violation
	Budget     int
}

func (e *RouteError) Error() string {
	if e.OutOfRange {
		return fmt.Sprintf("fabric: worker %d sent to out-of-range worker %d", e.From, e.To)
	}
	return fmt.Sprintf("fabric: pair (%d→%d) moved %d words (budget %d)", e.From, e.To, e.Words, e.Budget)
}

// SumError reports a combining-round frame whose payload would land past
// the end of the round's accumulator.
type SumError struct {
	From, To int
	Words    int // the frame's payload length
	Len      int // len(sum)
}

func (e *SumError) Error() string {
	return fmt.Sprintf("fabric: %d-word frame %d→%d lands past the %d-word sum", e.Words, e.From, e.To, e.Len)
}

// DeliverOpts configures one delivery.
type DeliverOpts struct {
	// PairWords > 0 enforces the congested-clique per-ordered-pair word
	// budget, checked in staging order.
	PairWords int
	// GroupOf maps workers to load-accounting groups (MPC machines); nil
	// means per-worker accounting with Groups = workers.
	GroupOf []int
	Groups  int
	// FreeIntraGroup leaves intra-group traffic uncharged (MPC's free
	// machine-local exchange); it applies only with GroupOf. Delivery still
	// happens.
	FreeIntraGroup bool
	// Pool, when non-nil, lets Deliver split the senders into one block per
	// pool worker and run its passes concurrently. Stats, sums, placed
	// frames and errors are identical at every block count; rounds staging
	// fewer than DeliverParallelMinWords run as one block.
	Pool *WorkPool
	// Sink is what the round does with its validated frames: nothing, sum
	// them, or place them. Errors and stats do not depend on it, except
	// that a combining round also rejects frames that land past its sum.
	Sink Sink
}

// RoundStats is the traffic profile of one delivered round. SendLoad and
// RecvLoad are per group and borrowed from the RoundBuffer: valid until its
// next Deliver, and valid only at the indices listed in Groups — the groups
// that moved charged traffic this round (every other group's load is zero,
// but its array entry may hold a stale value from an earlier round).
//
// Groups is ascending for grouped rounds (DeliverOpts.GroupOf set), so a
// backend walking it meets the lowest offending group first. For ungrouped
// rounds it is an unordered set, and its order may depend on the block
// count; the congested clique reads only the total and the two maxima.
type RoundStats struct {
	TotalWords  int64
	MaxSendLoad int64
	MaxRecvLoad int64
	SendLoad    []int64
	RecvLoad    []int64
	Groups      []int32 // groups with nonzero charged traffic
	// ScratchWords is the delivery scratch the round used, in 64-bit
	// words: the sender blocks' destination rows, group rows and combining
	// accumulators.
	ScratchWords int64
}

// RoundBuffer holds the arenas and scratch state for flat rounds. A backend
// owns one and resets it at the start of every round, so its arenas and
// rows keep their capacity from round to round. The zero value is ready to
// use; Reset starts each round.
type RoundBuffer struct {
	n    int
	send []SendBuf

	// The current round, as the block passes read it.
	opts    DeliverOpts
	base    int64 // destSlot stamps: this round's sender w stamps base+w+1
	perDest bool  // blocks keep destination rows (see Deliver)

	live     []int32        // senders that staged anything, ascending
	blocks   []deliverBlock // one per pool worker at most; rows persist
	slotBase int64          // base of the next round
	epoch    int64          // per round: gStamp and groupSlot stamps
	gStamp   []int64        // per group: epoch of last charged traffic
	tgroups  []int32        // groups with charged traffic this round
	sendLoad []int64
	recvLoad []int64
}

// deliverBlock is one block of contiguous senders, live[lo:hi]: its
// validation, loads and partial sums.
type deliverBlock struct {
	lo, hi int
	slots  []destSlot  // per destination (when perDest)
	touch  []int32     // destinations the block reached, first-touch order
	groups []groupSlot // grouped accounting: per group
	gtouch []int32     // groups the block charged
	acc    []int64     // combining round: the block's partial sums
	err    error       // the block's first violation in staging order
}

// destSlot is one block's state for one destination, kept together so each
// frame costs one random access.
type destSlot struct {
	stamp int64 // base + the last sender to reach it + 1; ≤ base: not reached this round
	recv  int64 // words the block's senders sent here this round
	pair  int32 // that last sender's running word total to this destination
}

// groupSlot is one block's charged traffic for one group.
type groupSlot struct {
	stamp      int64 // epoch of the block's last charge here
	send, recv int64
}

// Scratch sizes in 64-bit words, for RoundStats.ScratchWords.
const (
	destSlotWords  = int64(unsafe.Sizeof(destSlot{}) / 8)
	groupSlotWords = int64(unsafe.Sizeof(groupSlot{}) / 8)
)

// DeliverParallelMinWords is the staged-word total below which Deliver
// runs a round as one block whatever DeliverOpts.Pool says: waking parked
// workers costs more than a small round's validation pass. A fan frame
// counts as the single frames it stands for, since delivery validates
// each of them.
// BenchmarkDeliver's charge-only announce rounds bracket it. Over six
// runs on a 2-vCPU box (GOMAXPROCS 2), splitting over two workers lost on
// the 2k-word round at n=64 in five (medians 16.6 vs 12.0 µs) and won on
// the 32k-word one at n=256 in five (174 vs 209 µs), with wide run-to-run
// spread. A var so tests can split tiny deterministic rounds.
var DeliverParallelMinWords = 1 << 14

// Reset sizes the buffer for an n-worker round and empties its arenas,
// keeping their capacity. Payloads placed from the previous round are
// overwritten by the next staging.
func (rb *RoundBuffer) Reset(n int) {
	rb.n = n
	if cap(rb.send) < n {
		grown := make([]SendBuf, n)
		copy(grown, rb.send)
		rb.send = grown
	}
	rb.send = rb.send[:n]
	for w := 0; w < n; w++ {
		rb.send[w].reset()
	}
}

// Sender returns worker w's staging arena for the current round.
func (rb *RoundBuffer) Sender(w int) *SendBuf { return &rb.send[w] }

// grow returns s with length n, reallocating (zeroed) only when its
// capacity is short; kept entries hold whatever they held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Deliver validates and charges the staged frames, then hands them to the
// round's Sink. It splits the senders into blocks of contiguous senders
// with about equal staged words (a fan frame counting as its single
// frames), at most one per pool worker:
//
//  1. one scan of the arenas lists the senders that staged anything;
//  2. each block validates its frames in staging order, stopping at its
//     first violation, and counts words and loads into its rows — and, in
//     a combining round, adds the frames into its own accumulator;
//  3. once every block has validated, the accumulators are added into
//     Sink.Sum, or each block hands its frames to Sink.Place.
//
// Blocks are ascending sender intervals, so the lowest block that reports
// a violation holds the first one in staging order: results do not depend
// on the block count, and one block is the serial case. Per-destination
// and per-group state is stamped and driven off lists of what the round
// touched, so a round costs its live traffic, not the worker domain.
func (rb *RoundBuffer) Deliver(opts DeliverOpts) (RoundStats, error) {
	rb.opts = opts
	stats, err := rb.deliver()
	rb.opts = DeliverOpts{} // hold no caller memory past the round
	return stats, err
}

func (rb *RoundBuffer) deliver() (RoundStats, error) {
	n := rb.n
	opts := &rb.opts
	groups := n
	if opts.GroupOf != nil {
		groups = opts.Groups
	}
	sum := opts.Sink.Sum
	rb.epoch++
	rb.base = rb.slotBase
	rb.slotBase += int64(n)
	rb.tgroups = rb.tgroups[:0]
	rb.gStamp = grow(rb.gStamp, groups)
	rb.sendLoad = grow(rb.sendLoad, groups)
	rb.recvLoad = grow(rb.recvLoad, groups)

	// Step 1: the round's only pass over all n arenas.
	staged := 0
	rb.live = rb.live[:0]
	for w := range rb.send[:n] {
		if sb := &rb.send[w]; len(sb.buf) > 0 {
			if sb.fan != 0 {
				panic("fabric: round delivered with a fan frame open")
			}
			rb.live = append(rb.live, int32(w))
			staged += sb.staged()
		}
	}
	nb := 1
	if p := opts.Pool; p != nil && staged >= DeliverParallelMinWords {
		nb = max(1, min(p.Workers(), len(rb.live)))
	}
	// Destination rows carry the pair budgets and the ungrouped receive
	// loads; a grouped round with no pair budget skips them.
	rb.perDest = opts.GroupOf == nil || opts.PairWords > 0
	scratch := rb.splitBlocks(nb, staged, groups, len(sum))

	rb.run(nb, (*RoundBuffer).count) // step 2
	for b := range nb {
		if err := rb.blocks[b].err; err != nil {
			return RoundStats{}, err
		}
	}
	total := rb.mergeLoads(nb)
	for b := range nb { // step 3
		for j, x := range rb.blocks[b].acc {
			sum[j] += x
		}
	}
	if opts.Sink.Place != nil {
		rb.run(nb, (*RoundBuffer).place)
	}
	return rb.stats(total, scratch), nil
}

// run executes pass(rb, b) for every block, on the pool when there are
// several; a one-block round allocates no closure.
func (rb *RoundBuffer) run(nb int, pass func(rb *RoundBuffer, b int)) {
	if nb == 1 {
		pass(rb, 0)
		return
	}
	rb.opts.Pool.RunHeavy(nb, func(b int) { pass(rb, b) })
}

// splitBlocks cuts the live senders into nb blocks of about equal staged
// words and sizes each block's rows for the round. It returns the rows'
// size in words.
func (rb *RoundBuffer) splitBlocks(nb, staged, groups, sumLen int) int64 {
	if len(rb.blocks) < nb {
		rb.blocks = append(rb.blocks, make([]deliverBlock, nb-len(rb.blocks))...)
	}
	b, acc := 0, 0
	for i, w := range rb.live {
		acc += rb.send[w].staged()
		for ; b+1 < nb && acc*nb >= (b+1)*staged; b++ {
			rb.blocks[b].hi = i + 1
		}
	}
	for ; b < nb; b++ {
		rb.blocks[b].hi = len(rb.live)
	}
	var words int64
	lo := 0
	for b := range nb {
		blk := &rb.blocks[b]
		blk.lo, lo = lo, blk.hi
		// Stale stamps are ≤ base (slots) or old epochs (groups), so rows
		// need no clearing.
		if rb.perDest {
			blk.slots = grow(blk.slots, rb.n)
			words += int64(rb.n) * destSlotWords
		}
		if rb.opts.GroupOf != nil {
			blk.groups = grow(blk.groups, groups)
			words += int64(groups) * groupSlotWords
		}
		blk.acc = blk.acc[:0]
		if rb.opts.Sink.Sum != nil {
			blk.acc = grow(blk.acc, sumLen)
			clear(blk.acc)
			words += int64(sumLen)
		}
	}
	return words
}

// count is step 2 for block b: validate its frames in staging order, up to
// the first violation, and count them into the block's rows. A fan frame
// is its destinations' frames in list order, each checked and charged as
// a single frame.
func (rb *RoundBuffer) count(b int) {
	blk := &rb.blocks[b]
	n, base, ep := rb.n, rb.base, rb.epoch
	pairWords := int64(rb.opts.PairWords)
	groupOf, free := rb.opts.GroupOf, rb.opts.FreeIntraGroup
	perDest, slots, acc := rb.perDest, blk.slots, blk.acc
	sumLen := -1 // not a combining round
	if rb.opts.Sink.Sum != nil {
		sumLen = len(rb.opts.Sink.Sum)
	}
	touch := blk.touch[:0]
	blk.gtouch, blk.err = blk.gtouch[:0], nil
senders:
	for _, w32 := range rb.live[blk.lo:blk.hi] {
		w := int(w32)
		buf := rb.send[w].buf
		st := base + int64(w) + 1
		gw := w
		if groupOf != nil {
			gw = groupOf[w]
		}
		for i := 0; i < len(buf); {
			h := buf[i]
			to, nw := unpackHeader(h)
			p := i + frameHeader
			i = p + nw
			if to < 0 || to >= n {
				if int64(h) >= 0 {
					blk.err = &RouteError{OutOfRange: true, From: w, To: to}
					break senders
				}
				// A fan frame (fanFlag fails the range check): the single
				// frame's checks and charges below, repeated for each
				// destination in list order. Single frames keep their own
				// loop-free path: one loop over a destination list for both
				// shapes cost single frames 20–55% more time each in
				// BenchmarkDeliver's aggregate and announce rounds.
				d, fw := unpackHeader(h &^ fanFlag)
				i = p + fw + (d+1)/2
				for _, t := range fanDests(buf[p+fw:], d) {
					to := int(t)
					if to < 0 || to >= n {
						blk.err = &RouteError{OutOfRange: true, From: w, To: to}
						break senders
					}
					if perDest {
						sl := &slots[to]
						if sl.stamp != st {
							if sl.stamp <= base {
								sl.recv = 0
								touch = append(touch, t)
							}
							sl.stamp, sl.pair = st, 0
						}
						if pairWords > 0 {
							pw := int64(sl.pair) + int64(fw)
							if pw > pairWords {
								blk.err = &RouteError{From: w, To: to, Words: int(pw), Budget: int(pairWords)}
								break senders
							}
							sl.pair = int32(pw)
						}
						sl.recv += int64(fw)
					}
					if sumLen >= 0 {
						if fw > 0 && to+(fw-1)*n >= sumLen {
							blk.err = &SumError{From: w, To: to, Words: fw, Len: sumLen}
							break senders
						}
						for s, x := range buf[p : p+fw] {
							acc[to+s*n] += int64(x)
						}
					}
					if groupOf != nil {
						if gt := groupOf[to]; !free || gt != gw {
							blk.group(gw, ep).send += int64(fw)
							blk.group(gt, ep).recv += int64(fw)
						}
					}
				}
				continue
			}
			if perDest {
				sl := &slots[to]
				if sl.stamp != st {
					if sl.stamp <= base {
						sl.recv = 0
						touch = append(touch, int32(to))
					}
					sl.stamp, sl.pair = st, 0
				}
				if pairWords > 0 {
					pw := int64(sl.pair) + int64(nw)
					if pw > pairWords {
						blk.err = &RouteError{From: w, To: to, Words: int(pw), Budget: int(pairWords)}
						break senders
					}
					sl.pair = int32(pw)
				}
				sl.recv += int64(nw)
			}
			if sumLen >= 0 {
				if nw > 0 && to+(nw-1)*n >= sumLen {
					blk.err = &SumError{From: w, To: to, Words: nw, Len: sumLen}
					break senders
				}
				for s, x := range buf[p:i] {
					acc[to+s*n] += int64(x)
				}
			}
			if groupOf != nil {
				if gt := groupOf[to]; !free || gt != gw {
					blk.group(gw, ep).send += int64(nw)
					blk.group(gt, ep).recv += int64(nw)
				}
			}
		}
	}
	blk.touch = touch
}

// group returns the block's slot for group g, listing g on first touch.
func (blk *deliverBlock) group(g int, ep int64) *groupSlot {
	gs := &blk.groups[g]
	if gs.stamp != ep {
		*gs = groupSlot{stamp: ep}
		blk.gtouch = append(blk.gtouch, int32(g))
	}
	return gs
}

// mergeLoads folds the blocks' rows into the round's group loads and
// returns the round's charged total. Ungrouped, every frame is charged, so
// a sender's load is exactly the payload words it staged, and the charged
// groups stay unsorted (see RoundStats.Groups).
func (rb *RoundBuffer) mergeLoads(nb int) int64 {
	var total int64
	if rb.opts.GroupOf != nil {
		for b := range nb {
			blk := &rb.blocks[b]
			for _, g := range blk.gtouch {
				gs := &blk.groups[g]
				rb.chargeGroup(g)
				rb.sendLoad[g] += gs.send
				rb.recvLoad[g] += gs.recv
				total += gs.send
			}
		}
		if !slices.IsSorted(rb.tgroups) {
			slices.Sort(rb.tgroups)
		}
	} else {
		for b := range nb {
			blk := &rb.blocks[b]
			for _, d := range blk.touch {
				rb.chargeGroup(d)
				rb.recvLoad[d] += blk.slots[d].recv
			}
		}
		for _, w := range rb.live {
			words := rb.send[w].words
			rb.chargeGroup(w)
			rb.sendLoad[w] = words
			total += words
		}
	}
	return total
}

// chargeGroup lists g among the round's charged groups on first touch.
func (rb *RoundBuffer) chargeGroup(g int32) {
	if rb.gStamp[g] != rb.epoch {
		rb.gStamp[g] = rb.epoch
		rb.sendLoad[g] = 0
		rb.recvLoad[g] = 0
		rb.tgroups = append(rb.tgroups, g)
	}
}

// stats assembles the round's RoundStats from the charged groups' loads.
func (rb *RoundBuffer) stats(total, scratch int64) RoundStats {
	var maxSend, maxRecv int64
	for _, g := range rb.tgroups {
		maxSend = max(maxSend, rb.sendLoad[g])
		maxRecv = max(maxRecv, rb.recvLoad[g])
	}
	return RoundStats{
		TotalWords:   total,
		MaxSendLoad:  maxSend,
		MaxRecvLoad:  maxRecv,
		SendLoad:     rb.sendLoad,
		RecvLoad:     rb.recvLoad,
		Groups:       rb.tgroups,
		ScratchWords: scratch,
	}
}

// place hands block b's frames to the placing round's callback, each
// sender's in staging order and a fan frame's in destination order.
func (rb *RoundBuffer) place(b int) {
	blk := &rb.blocks[b]
	place := rb.opts.Sink.Place
	for _, w32 := range rb.live[blk.lo:blk.hi] {
		w := int(w32)
		buf := rb.send[w].buf
		for i := 0; i < len(buf); {
			to, fan, end, next := frameAt(buf, i)
			payload := buf[i+frameHeader : end : end]
			if fan == nil {
				place(w, to, payload)
			}
			for _, t := range fan {
				place(w, int(t), payload)
			}
			i = next
		}
	}
}
