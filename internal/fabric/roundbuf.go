package fabric

import (
	"fmt"
	"slices"
	"sync"
)

// Flat-buffer round fabric: instead of materializing one Msg (and one Words
// slice) per message per round, a round's outgoing traffic is staged in
// per-worker contiguous []uint64 arenas (one per sender, so the sender is
// implied by the arena) as length-prefixed frames
//
//	header, payload...
//
// where the single header word packs the destination in its low half and
// the payload length in its high half (see packHeader). Delivery is a
// counting sort over destinations. Inbox Msg.Words are zero-copy views into
// the staging arenas, and the arenas are recycled across rounds through a
// sync.Pool, so the steady-state round executes with no per-message heap
// allocation on the fabric side. Rounds that only charge their traffic
// (SendFrames) stop after validation and accounting and build no inboxes.
//
// Lifetime contract: the inboxes returned by a FrameFabric round (including
// the classic Round adapter over it) reference pooled arenas and are valid
// only until the next Round/FrameRound call on the same fabric. Every
// consumer that needs data across rounds must copy it out — all in-tree
// callers already do.

// frameHeader is the number of header words per frame. The sender is
// implied by whose arena a frame sits in, and destination and payload
// length both fit in 32 bits, so one word carries the whole header:
// destination in the low half (two's complement, so out-of-range negatives
// survive the round trip to be rejected at delivery), payload word count in
// the high half. Announce-style rounds move 1-word payloads, so header
// width is the dominant arena traffic — 1 word instead of 3 halves it.
const frameHeader = 1

func packHeader(to, n int) uint64 {
	return uint64(uint32(int32(to))) | uint64(uint32(n))<<32
}

func unpackHeader(h uint64) (to, n int) {
	return int(int32(uint32(h))), int(h >> 32)
}

// FrameFabric is implemented by fabrics whose rounds can be staged directly
// as flat frames, bypassing []Msg materialization on the send side. The
// communication primitives in this package use it when available and fall
// back to Fabric.Round otherwise; semantics (message content, inbox order,
// ledger charges) are identical on both paths.
type FrameFabric interface {
	Fabric
	// FrameRound runs one synchronous round: stage is invoked (possibly
	// concurrently) once per worker to write that worker's outgoing frames.
	FrameRound(stage func(w int, sb *SendBuf)) ([][]Msg, error)
}

// SendBuf stages one worker's outgoing frames for one round in a contiguous
// arena. It is handed to staging callbacks by FrameRound; the zero value is
// ready for use after reset.
type SendBuf struct {
	from int
	buf  []uint64
	nmsg int
}

func (sb *SendBuf) reset(from int) {
	sb.from = from
	sb.buf = sb.buf[:0]
	sb.nmsg = 0
}

// Begin reserves a frame addressed to `to` with an n-word payload and
// returns the payload slice for the caller to fill in place. The slice
// must be filled before the next Begin/Put on the same SendBuf: a later
// reservation may grow the arena and reallocate it, detaching earlier
// payload slices. Destination validation happens at delivery, in staging
// order, so the error behavior matches the classic per-message path.
func (sb *SendBuf) Begin(to, n int) []uint64 {
	sb.buf = append(sb.buf, packHeader(to, n))
	l := len(sb.buf)
	if cap(sb.buf)-l < n {
		grown := make([]uint64, l, 2*(l+n)+64)
		copy(grown, sb.buf)
		sb.buf = grown
	}
	sb.buf = sb.buf[:l+n]
	sb.nmsg++
	return sb.buf[l : l+n]
}

// Put stages one message. Passing an existing slice with `words...` does
// not copy it to the heap; the payload is copied into the arena.
func (sb *SendBuf) Put(to int, words ...uint64) {
	copy(sb.Begin(to, len(words)), words)
}

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

// messages materializes the staged frames as a []Msg — the fallback path
// for fabrics without native frame support.
func (sb *SendBuf) messages() []Msg {
	if sb.nmsg == 0 {
		return nil
	}
	out := make([]Msg, 0, sb.nmsg)
	for i := 0; i < len(sb.buf); {
		to, nw := unpackHeader(sb.buf[i])
		out = append(out, Msg{To: to, Words: sb.buf[i+frameHeader : i+frameHeader+nw]})
		i += frameHeader + nw
	}
	return out
}

// RoundFrames runs one round staged as flat frames: natively on a
// FrameFabric, or materialized through Fabric.Round otherwise. Algorithm
// code can use it in place of Fabric.Round without tying itself to any
// backend: semantics (message content, inbox order, ledger charges) are
// identical on both paths.
func RoundFrames(f Fabric, stage func(w int, sb *SendBuf)) ([][]Msg, error) {
	if ff, ok := f.(FrameFabric); ok {
		return ff.FrameRound(stage)
	}
	n := f.Workers()
	bufs := make([]SendBuf, n)
	return f.Round(func(w int) []Msg {
		sb := &bufs[w]
		sb.reset(w)
		stage(w, sb)
		return sb.messages()
	})
}

// ChargeOnlyFabric is an optional FrameFabric extension for rounds whose
// inboxes no caller reads. SkipNextInboxes is a one-shot request: the
// fabric's next Round or FrameRound stages, validates, and charges its
// traffic exactly as usual but builds no inboxes and returns nil ones. That
// round consumes the request even when it fails, and a fabric reset drops a
// pending one.
//
// The request rides on the ordinary FrameRound rather than a method of its
// own, so a wrapper that embeds a backend and intercepts FrameRound (to time
// or count rounds) still sees every charge-only round. SendFrames is the
// intended caller.
type ChargeOnlyFabric interface {
	SkipNextInboxes()
}

// SendFrames runs one round staged as flat frames whose inboxes the caller
// does not read: the receivers learn the transmitted state from the
// simulation directly, and the round exists so that its traffic is charged
// to the ledger and checked against the model's limits. On a
// ChargeOnlyFabric it skips inbox construction; elsewhere it is RoundFrames
// with the inboxes dropped. Errors and ledger charges are identical either
// way.
func SendFrames(f Fabric, stage func(w int, sb *SendBuf)) error {
	if c, ok := f.(ChargeOnlyFabric); ok {
		c.SkipNextInboxes()
	}
	_, err := RoundFrames(f, stage)
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
	// machine-local exchange). Delivery still happens.
	FreeIntraGroup bool
	// Pool, when non-nil, lets Deliver partition the destination space into
	// per-worker ranges and run the counting sort concurrently (a
	// charge-only round partitions the senders instead). Inboxes, stats, and
	// errors are byte-identical to the serial path; rounds staging fewer
	// than DeliverParallelMinWords stay serial.
	Pool *WorkPool
	// ChargeOnly stops Deliver after its validation and accounting pass:
	// errors and stats are exactly those of a full delivery, but no inboxes
	// are built and Deliver returns nil ones.
	ChargeOnly bool
}

// RoundStats is the traffic profile of one delivered round. SendLoad and
// RecvLoad are per group and borrowed from the RoundBuffer: valid until its
// next Deliver, and valid only at the indices listed in Groups — the groups
// that moved charged traffic this round (every other group's load is zero,
// but its array entry may hold a stale value from an earlier round).
type RoundStats struct {
	TotalWords  int64
	MaxSendLoad int64
	MaxRecvLoad int64
	SendLoad    []int64
	RecvLoad    []int64
	Groups      []int32 // groups with nonzero charged traffic, ascending
}

// RoundBuffer holds the pooled arenas and scratch state for flat rounds.
// Backends acquire one per round (releasing the previous round's buffer,
// whose inbox data is dead by the lifetime contract) so arenas recycle
// across rounds and across fabrics.
type RoundBuffer struct {
	n    int
	send []SendBuf

	cnt       []int32 // per destination: frame count, then fill cursor (epoch-stamped)
	off       []int32 // per destination: msg slab offset (epoch-stamped)
	destStamp []int64 // per destination: epoch of last touch
	touched   []int32 // destinations with frames this round
	prevTouch []int32 // last round's touched list (inbox entries to reset)
	gStamp    []int64 // per group: epoch of last charged traffic
	tgroups   []int32 // groups with charged traffic this round
	epoch     int64
	loc       []uint64 // counting-sorted frame locators: sender<<32 | payload offset
	locFrom   []int32  // wide-path senders (offsets no longer fit the packing)
	msgs      []Msg    // header slab; inboxes are windows into it
	inboxes   [][]Msg  // full-length backing; untouched entries stay empty
	sendLoad  []int64
	recvLoad  []int64
	pairCnt   []int32 // per destination, epoch-stamped per sender
	pairStamp []int64
	stamp     int64

	// Parallel-delivery scratch: per destination-range worker state. Every
	// shared per-destination array above is written at disjoint indices (each
	// range owns a contiguous destination interval); everything that cannot
	// be destination-owned lands here and is merged serially between the two
	// parallel phases.
	rangeTouch [][]int32        // per range: touched destinations (sorted)
	rangeOff   []int            // per range: offset of its touch run in touched
	rangeNmsg  []int            // per range: frame count
	rangeErr   []deliverErrCand // per range: earliest staging-order violation
	grpSend    []int64          // grouped mode: per (range, group) charged send words
	grpRecv    []int64          // grouped mode: per (range, group) charged recv words
	grpHit     []bool           // grouped mode: per (range, group) any charged frame

	// Charge-only ranged scratch (chargeParallel): ranges are sender blocks.
	senderCut   []int        // block b holds senders [senderCut[b], senderCut[b+1])
	blockSlots  [][]destSlot // per block: per-destination state
	chargeStamp int64        // destSlot stamps: a round's senders stamp above it
}

// destSlot is one sender block's per-destination state in chargeParallel,
// kept together so each frame costs one random access.
type destSlot struct {
	stamp int64 // chargeStamp at round start + the last sender to reach it + 1
	pair  int64 // that sender's running word total to this destination
	recv  int64 // words the block's senders sent here this round
}

// deliverErrCand is one range worker's earliest violation, positioned by
// (sender, arena index) so the serial staging-order error wins the merge.
type deliverErrCand struct {
	ok   bool
	w, i int
	err  RouteError
}

// locOffsetLimit is the first arena offset that no longer fits the packed
// sender<<32|offset locator. Arenas at or past it (≥32 GiB staged by one
// sender) take the wide path: full-width offsets in loc with senders in a
// parallel slab. A var so tests can exercise the wide path without staging
// 2³² words.
var locOffsetLimit uint64 = 1 << 32

// DeliverParallelMinWords is the staged-word total below which Deliver
// ignores DeliverOpts.Pool: waking parked workers and merging per-range
// state costs more than a small round's counting sort. A var so tests can
// force the parallel path on tiny deterministic rounds.
var DeliverParallelMinWords = 1 << 14

// deliverParallelMaxGroups bounds the grouped-accounting parallel path: the
// per-(range, group) merge slabs are O(ranges·groups), which is only cheap
// when groups (MPC machines) is far below the worker domain. Beyond it,
// grouped rounds fall back to serial delivery.
const deliverParallelMaxGroups = 1 << 13

var roundBufPool = sync.Pool{New: func() any { return new(RoundBuffer) }}

// AcquireRoundBuffer returns a buffer sized for an n-worker round with all
// arenas reset (capacity retained from previous uses).
func AcquireRoundBuffer(n int) *RoundBuffer {
	rb := roundBufPool.Get().(*RoundBuffer)
	rb.n = n
	if cap(rb.send) < n {
		grown := make([]SendBuf, n)
		copy(grown, rb.send)
		rb.send = grown
	}
	rb.send = rb.send[:n]
	for w := 0; w < n; w++ {
		rb.send[w].reset(w)
	}
	return rb
}

// ReleaseRoundBuffer returns a buffer to the pool. The caller must not touch
// the buffer, or any inboxes delivered from it, afterwards.
func ReleaseRoundBuffer(rb *RoundBuffer) { roundBufPool.Put(rb) }

// Sender returns worker w's staging arena for the current round.
func (rb *RoundBuffer) Sender(w int) *SendBuf { return &rb.send[w] }

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Deliver validates and routes the staged frames, returning per-worker
// inboxes sorted exactly as SortInbox orders them: by sender, then by
// lexicographic payload. The counting sort over destinations visits senders
// in ascending order, so only equal-sender runs need payload ordering.
//
// All per-destination and per-group state is epoch-stamped and driven off
// lists of the destinations/groups actually touched, so a round's delivery
// cost scales with its live traffic, not with the full worker domain — at
// large n most rounds of the recursive solvers touch a small residual set,
// and the old full-width zero/prefix/scan passes dominated wall clock.
//
// With opts.ChargeOnly, Deliver returns after pass 1 (validation and
// accounting; on the pool, chargeParallel): no frame counts, locators, Msg
// slab, or tie-break sort, and nil inboxes. The inbox entries of the
// previous round on this buffer are still reset, so a full round after a
// charge-only one starts clean.
func (rb *RoundBuffer) Deliver(opts DeliverOpts) ([][]Msg, RoundStats, error) {
	n := rb.n
	groups := opts.Groups
	groupOf := opts.GroupOf
	if groupOf == nil {
		groups = n
	}
	rb.epoch++
	ep := rb.epoch
	// Reset the inbox entries the previous round on this buffer populated;
	// everything else is empty by invariant.
	for _, d := range rb.prevTouch {
		rb.inboxes[d] = nil
	}
	rb.prevTouch = rb.prevTouch[:0]
	rb.touched = rb.touched[:0]
	rb.tgroups = rb.tgroups[:0]
	rb.cnt = growInt32(rb.cnt, n)
	rb.off = growInt32(rb.off, n)
	rb.destStamp = growInt64(rb.destStamp, n)
	rb.sendLoad = growInt64(rb.sendLoad, groups)
	rb.recvLoad = growInt64(rb.recvLoad, groups)
	rb.gStamp = growInt64(rb.gStamp, groups)
	if cap(rb.inboxes) < n {
		grown := make([][]Msg, n)
		copy(grown, rb.inboxes)
		rb.inboxes = grown
	}
	if opts.PairWords > 0 {
		rb.pairCnt = growInt32(rb.pairCnt, n)
		if cap(rb.pairStamp) < n {
			rb.pairStamp = make([]int64, n)
			rb.stamp = 0
		}
		rb.pairStamp = rb.pairStamp[:n]
	}
	chargeGroup := func(g int) {
		if rb.gStamp[g] != ep {
			rb.gStamp[g] = ep
			rb.sendLoad[g] = 0
			rb.recvLoad[g] = 0
			rb.tgroups = append(rb.tgroups, int32(g))
		}
	}

	staged, maxArena := 0, 0
	for w := 0; w < n; w++ {
		l := len(rb.send[w].buf)
		staged += l
		if l > maxArena {
			maxArena = l
		}
	}
	if opts.Pool != nil && opts.Pool.Workers() > 1 && staged >= DeliverParallelMinWords &&
		!(opts.FreeIntraGroup && groupOf == nil) &&
		(groupOf == nil || groups <= deliverParallelMaxGroups) {
		if !opts.ChargeOnly {
			return rb.deliverParallel(opts, groups, maxArena)
		}
		// chargeParallel keeps a row of n slots per sender block; rounds
		// staging fewer than n words are cheaper serially.
		if staged >= n {
			stats, err := rb.chargeParallel(opts, groups, staged)
			return nil, stats, err
		}
	}

	// Pass 1: validate in staging order, count frames per destination
	// (unless charge-only), and charge group loads.
	inbox := !opts.ChargeOnly
	var total int64
	nmsg := 0
	for w := 0; w < n; w++ {
		buf := rb.send[w].buf
		if len(buf) == 0 {
			continue
		}
		rb.stamp++
		gw := w
		if groupOf != nil {
			gw = groupOf[w]
		}
		for i := 0; i < len(buf); {
			to, nw := unpackHeader(buf[i])
			if to < 0 || to >= n {
				return nil, RoundStats{}, &RouteError{OutOfRange: true, From: w, To: to}
			}
			if opts.PairWords > 0 {
				if rb.pairStamp[to] != rb.stamp {
					rb.pairStamp[to] = rb.stamp
					rb.pairCnt[to] = 0
				}
				rb.pairCnt[to] += int32(nw)
				if int(rb.pairCnt[to]) > opts.PairWords {
					return nil, RoundStats{}, &RouteError{
						From: w, To: to, Words: int(rb.pairCnt[to]), Budget: opts.PairWords,
					}
				}
			}
			if inbox {
				if rb.destStamp[to] != ep {
					rb.destStamp[to] = ep
					rb.cnt[to] = 0
					rb.touched = append(rb.touched, int32(to))
				}
				rb.cnt[to]++
				nmsg++
			}
			gt := to
			if groupOf != nil {
				gt = groupOf[to]
			}
			if !opts.FreeIntraGroup || gt != gw {
				words := int64(nw)
				chargeGroup(gw)
				chargeGroup(gt)
				rb.sendLoad[gw] += words
				rb.recvLoad[gt] += words
				total += words
			}
			i += frameHeader + nw
		}
	}
	if !slices.IsSorted(rb.tgroups) {
		slices.Sort(rb.tgroups)
	}
	if !inbox {
		return nil, rb.stats(total), nil
	}
	if !slices.IsSorted(rb.touched) {
		slices.Sort(rb.touched)
	}

	// Pass 2: prefix offsets over the touched destinations, then
	// counting-sort the frames. The scattered (random-order) stores are
	// 8-byte pointer-free locators — sender and payload offset packed in one
	// word — which stay cache-resident and take no write barriers; the
	// 40-byte Msg structs are then materialized in a sequential sweep over
	// the sorted locators. Scattering the Msg structs directly was measured
	// and lost: random 40-byte stores with pointer write barriers dominated
	// Deliver. Staging order visits senders ascending, so each inbox comes
	// out From-sorted. If any sender's arena outgrew the packed offset
	// range, senders ride in a parallel slab instead (the wide path).
	run := int32(0)
	for _, d := range rb.touched {
		rb.off[d] = run
		run += rb.cnt[d]
		rb.cnt[d] = 0 // reuse as fill cursor
	}
	if cap(rb.loc) < nmsg {
		rb.loc = make([]uint64, nmsg)
	}
	rb.loc = rb.loc[:nmsg]
	wide := uint64(maxArena) >= locOffsetLimit
	if wide {
		rb.locFrom = growInt32(rb.locFrom, nmsg)
	}
	for w := 0; w < n; w++ {
		buf := rb.send[w].buf
		for i := 0; i < len(buf); {
			to, nw := unpackHeader(buf[i])
			idx := rb.off[to] + rb.cnt[to]
			rb.cnt[to]++
			lo := i + frameHeader
			if wide {
				rb.loc[idx] = uint64(lo)
				rb.locFrom[idx] = int32(w)
			} else {
				rb.loc[idx] = uint64(w)<<32 | uint64(uint32(lo))
			}
			i = lo + nw
		}
	}
	if cap(rb.msgs) < nmsg {
		rb.msgs = make([]Msg, nmsg)
	}
	rb.msgs = rb.msgs[:nmsg]
	for ti, d := range rb.touched {
		lo32 := rb.off[d]
		hi32 := int32(nmsg)
		if ti+1 < len(rb.touched) {
			hi32 = rb.off[rb.touched[ti+1]]
		}
		for idx := int(lo32); idx < int(hi32); idx++ {
			var from, lo int
			if wide {
				from, lo = int(rb.locFrom[idx]), int(rb.loc[idx])
			} else {
				l := rb.loc[idx]
				from, lo = int(l>>32), int(uint32(l))
			}
			buf := rb.send[from].buf
			_, nw := unpackHeader(buf[lo-1])
			hi := lo + nw
			rb.msgs[idx] = Msg{To: int(d), From: from, Words: buf[lo:hi:hi]}
		}
	}

	// Pass 3: slice inboxes out of the slab and order equal-sender runs by
	// payload (SortInbox's tie-break; runs are per ordered pair and tiny).
	for ti, d := range rb.touched {
		lo := rb.off[d]
		hi := int32(nmsg)
		if ti+1 < len(rb.touched) {
			hi = rb.off[rb.touched[ti+1]]
		}
		in := rb.msgs[lo:hi]
		rb.inboxes[d] = in
		for i := 1; i < len(in); {
			if in[i].From != in[i-1].From {
				i++
				continue
			}
			j := i - 1
			for i < len(in) && in[i].From == in[j].From {
				i++
			}
			insertionSortByWords(in[j:i])
		}
	}
	// The touched list becomes next round's inbox-reset list (swap so both
	// stay allocation-free in steady state).
	rb.touched, rb.prevTouch = rb.prevTouch, rb.touched
	return rb.inboxes[:n], rb.stats(total), nil
}

// stats assembles the round's RoundStats from the charged groups' loads.
func (rb *RoundBuffer) stats(total int64) RoundStats {
	var maxSend, maxRecv int64
	for _, g := range rb.tgroups {
		if rb.sendLoad[g] > maxSend {
			maxSend = rb.sendLoad[g]
		}
		if rb.recvLoad[g] > maxRecv {
			maxRecv = rb.recvLoad[g]
		}
	}
	return RoundStats{
		TotalWords:  total,
		MaxSendLoad: maxSend,
		MaxRecvLoad: maxRecv,
		SendLoad:    rb.sendLoad,
		RecvLoad:    rb.recvLoad,
		Groups:      rb.tgroups,
	}
}

// deliverParallel is Deliver's multicore body: the destination space [0,n)
// splits into one contiguous range per pool worker, and each range worker
// counts, scatters, materializes, and tie-break-sorts only the frames
// addressed into its range. Each worker walks every sender's arena in
// ascending order (headers skip payloads, so the rescans stream), which
// preserves the per-destination fill order — ascending sender, then staging
// order — and the equal-sender payload sort is unchanged, so inboxes come
// out byte-identical to the serial pass.
//
// Everything per-destination (cnt, off, destStamp, pair budgets, ungrouped
// recvLoad, msgs, inboxes) is written only by the owning range, so the
// shared arrays need no synchronization beyond the pool's round barrier.
// What cannot be destination-owned is reconstructed serially between the
// phases: the first staging-order RouteError wins a min-(sender, index)
// merge, ungrouped send loads fall out of arena sizes (every frame is
// charged when no traffic is free), and grouped loads merge per-(range,
// group) partial sums.
func (rb *RoundBuffer) deliverParallel(opts DeliverOpts, groups, maxArena int) ([][]Msg, RoundStats, error) {
	n := rb.n
	groupOf := opts.GroupOf
	pool := opts.Pool
	ep := rb.epoch
	nr := pool.Workers()
	if nr > n {
		nr = n
	}
	rb.rangeScratch(nr, groups, groupOf != nil)
	if cap(rb.rangeOff) < nr+1 {
		rb.rangeOff = make([]int, nr+1)
	}
	rb.rangeOff = rb.rangeOff[:nr+1]
	if cap(rb.rangeNmsg) < nr {
		rb.rangeNmsg = make([]int, nr)
	}
	rb.rangeNmsg = rb.rangeNmsg[:nr]
	// Reserve a deterministic pair-budget stamp per sender up front: the
	// serial pass advances rb.stamp once per non-empty arena, but ranges
	// visit senders concurrently, so sender w stamps with base+w+1 instead.
	// Stamps stay strictly increasing across rounds either way.
	stampBase := rb.stamp
	rb.stamp += int64(n)

	// Phase A: per range — validate, enforce pair budgets, count frames per
	// destination, accumulate receive (and grouped) loads.
	phaseA := func(r int) {
		lo := r * n / nr
		hi := (r + 1) * n / nr
		touch := rb.rangeTouch[r][:0]
		var cand deliverErrCand
		count := 0
		var gSend, gRecv []int64
		var gHit []bool
		if groupOf != nil {
			gSend = rb.grpSend[r*groups : (r+1)*groups]
			gRecv = rb.grpRecv[r*groups : (r+1)*groups]
			gHit = rb.grpHit[r*groups : (r+1)*groups]
		}
		for w := 0; w < n; w++ {
			buf := rb.send[w].buf
			if len(buf) == 0 {
				continue
			}
			st := stampBase + int64(w) + 1
			gw := w
			if groupOf != nil {
				gw = groupOf[w]
			}
			for i := 0; i < len(buf); {
				to, nw := unpackHeader(buf[i])
				fi := i
				i += frameHeader + nw
				if to < lo || to >= hi {
					// Another range's frame — except invalid destinations,
					// which belong to no range: every worker spots those, so
					// the merge still sees the staging-order first.
					if (to < 0 || to >= n) && !cand.ok {
						cand = deliverErrCand{ok: true, w: w, i: fi,
							err: RouteError{OutOfRange: true, From: w, To: to}}
					}
					continue
				}
				if opts.PairWords > 0 {
					if rb.pairStamp[to] != st {
						rb.pairStamp[to] = st
						rb.pairCnt[to] = 0
					}
					rb.pairCnt[to] += int32(nw)
					if int(rb.pairCnt[to]) > opts.PairWords && !cand.ok {
						cand = deliverErrCand{ok: true, w: w, i: fi,
							err: RouteError{From: w, To: to, Words: int(rb.pairCnt[to]), Budget: opts.PairWords}}
					}
				}
				if rb.destStamp[to] != ep {
					rb.destStamp[to] = ep
					rb.cnt[to] = 0
					if groupOf == nil {
						rb.recvLoad[to] = 0
					}
					touch = append(touch, int32(to))
				}
				rb.cnt[to]++
				count++
				if groupOf == nil {
					rb.recvLoad[to] += int64(nw)
				} else {
					gt := groupOf[to]
					if !opts.FreeIntraGroup || gt != gw {
						gSend[gw] += int64(nw)
						gRecv[gt] += int64(nw)
						gHit[gw] = true
						gHit[gt] = true
					}
				}
			}
		}
		slices.Sort(touch) // ranges are ascending intervals: concat is sorted
		rb.rangeTouch[r] = touch
		rb.rangeNmsg[r] = count
		rb.rangeErr[r] = cand
	}
	pool.RunHeavy(nr, phaseA)

	// Error merge: the earliest (sender, staging index) violation across
	// ranges is exactly the error the serial pass would have returned.
	var best *deliverErrCand
	for r := 0; r < nr; r++ {
		c := &rb.rangeErr[r]
		if c.ok && (best == nil || c.w < best.w || (c.w == best.w && c.i < best.i)) {
			best = c
		}
	}
	if best != nil {
		e := best.err
		return nil, RoundStats{}, &e
	}

	nmsg := 0
	rb.touched = rb.touched[:0]
	for r := 0; r < nr; r++ {
		rb.rangeOff[r] = len(rb.touched)
		rb.touched = append(rb.touched, rb.rangeTouch[r]...)
		nmsg += rb.rangeNmsg[r]
	}
	rb.rangeOff[nr] = len(rb.touched)

	// Group accounting merge. Ungrouped, the touched list is the receive
	// side (its loads were summed in phase A by the owning range).
	var total int64
	if groupOf == nil {
		for _, d := range rb.touched {
			if rb.gStamp[d] != ep {
				rb.gStamp[d] = ep
				rb.tgroups = append(rb.tgroups, d)
				rb.sendLoad[d] = 0 // receives but sends nothing
			}
		}
		total = rb.chargeSenders()
	} else {
		total = rb.mergeGroups(nr, groups)
	}

	// Prefix offsets over the (globally sorted) touched list, exactly as the
	// serial pass 2; each range then fills a contiguous region of loc/msgs.
	run := int32(0)
	for _, d := range rb.touched {
		rb.off[d] = run
		run += rb.cnt[d]
		rb.cnt[d] = 0 // reuse as fill cursor
	}
	if cap(rb.loc) < nmsg {
		rb.loc = make([]uint64, nmsg)
	}
	rb.loc = rb.loc[:nmsg]
	wide := uint64(maxArena) >= locOffsetLimit
	if wide {
		rb.locFrom = growInt32(rb.locFrom, nmsg)
	}
	if cap(rb.msgs) < nmsg {
		rb.msgs = make([]Msg, nmsg)
	}
	rb.msgs = rb.msgs[:nmsg]

	// Phase B+C fused per range: scatter locators for the range's
	// destinations, then materialize Msgs and tie-break-sort its inboxes —
	// a range reads only locator slots it wrote itself, so no barrier is
	// needed between the scatter and the sweep.
	phaseBC := func(r int) {
		lo := r * n / nr
		hi := (r + 1) * n / nr
		for w := 0; w < n; w++ {
			buf := rb.send[w].buf
			for i := 0; i < len(buf); {
				to, nw := unpackHeader(buf[i])
				plo := i + frameHeader
				i = plo + nw
				if to < lo || to >= hi {
					continue
				}
				idx := rb.off[to] + rb.cnt[to]
				rb.cnt[to]++
				if wide {
					rb.loc[idx] = uint64(plo)
					rb.locFrom[idx] = int32(w)
				} else {
					rb.loc[idx] = uint64(w)<<32 | uint64(uint32(plo))
				}
			}
		}
		for ti := rb.rangeOff[r]; ti < rb.rangeOff[r+1]; ti++ {
			d := rb.touched[ti]
			mlo := rb.off[d]
			mhi := int32(nmsg)
			if ti+1 < len(rb.touched) {
				mhi = rb.off[rb.touched[ti+1]]
			}
			for idx := mlo; idx < mhi; idx++ {
				var from, plo int
				if wide {
					from, plo = int(rb.locFrom[idx]), int(rb.loc[idx])
				} else {
					l := rb.loc[idx]
					from, plo = int(l>>32), int(uint32(l))
				}
				buf := rb.send[from].buf
				_, nw := unpackHeader(buf[plo-1])
				phi := plo + nw
				rb.msgs[idx] = Msg{To: int(d), From: from, Words: buf[plo:phi:phi]}
			}
			in := rb.msgs[mlo:mhi]
			rb.inboxes[d] = in
			for i := 1; i < len(in); {
				if in[i].From != in[i-1].From {
					i++
					continue
				}
				j := i - 1
				for i < len(in) && in[i].From == in[j].From {
					i++
				}
				insertionSortByWords(in[j:i])
			}
		}
	}
	pool.RunHeavy(nr, phaseBC)

	rb.touched, rb.prevTouch = rb.prevTouch, rb.touched
	return rb.inboxes[:n], rb.stats(total), nil
}

// rangeScratch sizes the per-range state shared by the ranged passes: touch
// lists, error candidates and, for grouped accounting, zeroed per-(range,
// group) load slabs.
func (rb *RoundBuffer) rangeScratch(nr, groups int, grouped bool) {
	if cap(rb.rangeTouch) < nr {
		grown := make([][]int32, nr)
		copy(grown, rb.rangeTouch)
		rb.rangeTouch = grown
	}
	rb.rangeTouch = rb.rangeTouch[:nr]
	if cap(rb.rangeErr) < nr {
		rb.rangeErr = make([]deliverErrCand, nr)
	}
	rb.rangeErr = rb.rangeErr[:nr]
	if grouped {
		rb.grpSend = growInt64(rb.grpSend, nr*groups)
		rb.grpRecv = growInt64(rb.grpRecv, nr*groups)
		rb.grpHit = growBool(rb.grpHit, nr*groups)
		clear(rb.grpSend)
		clear(rb.grpRecv)
		clear(rb.grpHit)
	}
}

// chargeSenders finishes ungrouped accounting once a ranged pass has listed
// the receive side in tgroups. With per-worker groups and nothing free,
// every staged frame is charged, so a sender's load is exactly its arena's
// payload words. It returns the round's total and leaves tgroups sorted.
func (rb *RoundBuffer) chargeSenders() int64 {
	ep := rb.epoch
	var total int64
	for w := 0; w < rb.n; w++ {
		sb := &rb.send[w]
		if sb.nmsg == 0 {
			continue
		}
		words := int64(len(sb.buf)) - int64(sb.nmsg)*frameHeader
		if rb.gStamp[w] != ep {
			rb.gStamp[w] = ep
			rb.tgroups = append(rb.tgroups, int32(w))
			rb.recvLoad[w] = 0 // sends but receives nothing
		}
		rb.sendLoad[w] = words
		total += words
	}
	if !slices.IsSorted(rb.tgroups) {
		slices.Sort(rb.tgroups)
	}
	return total
}

// mergeGroups sums a grouped ranged pass's per-(range, group) slabs into the
// group loads and returns the round's total.
func (rb *RoundBuffer) mergeGroups(nr, groups int) int64 {
	ep := rb.epoch
	var total int64
	for g := 0; g < groups; g++ {
		hit := false
		var sw, rw int64
		for r := 0; r < nr; r++ {
			if rb.grpHit[r*groups+g] {
				hit = true
			}
			sw += rb.grpSend[r*groups+g]
			rw += rb.grpRecv[r*groups+g]
		}
		if !hit {
			continue
		}
		rb.gStamp[g] = ep
		rb.tgroups = append(rb.tgroups, int32(g)) // ascending by construction
		rb.sendLoad[g] = sw
		rb.recvLoad[g] = rw
		total += sw
	}
	return total
}

// chargeParallel is the charge-only accounting pass on the pool. Where
// deliverParallel splits the destinations, so that every range scans every
// arena, it splits the senders into contiguous blocks of about equal staged
// words, so each frame is read once. What is keyed by destination (the
// pair-budget counters and, ungrouped, the receive loads) lives in per-block
// destSlot rows and is merged serially; grouped loads go to the
// per-(block, group) slabs. Blocks are ascending sender intervals and each
// stops at its first violation, so the lowest block that reports one holds
// the error the serial pass would return.
func (rb *RoundBuffer) chargeParallel(opts DeliverOpts, groups, staged int) (RoundStats, error) {
	n := rb.n
	groupOf := opts.GroupOf
	nb := opts.Pool.Workers()
	if nb > n {
		nb = n
	}
	rb.rangeScratch(nb, groups, groupOf != nil)
	rb.senderCut = append(rb.senderCut[:0], 0)
	acc := 0
	for w := 0; w < n; w++ {
		acc += len(rb.send[w].buf)
		for len(rb.senderCut) < nb && acc*nb >= len(rb.senderCut)*staged {
			rb.senderCut = append(rb.senderCut, w+1)
		}
	}
	for len(rb.senderCut) <= nb {
		rb.senderCut = append(rb.senderCut, n)
	}
	perDest := groupOf == nil || opts.PairWords > 0
	if perDest {
		if len(rb.blockSlots) < nb {
			rb.blockSlots = append(rb.blockSlots, make([][]destSlot, nb-len(rb.blockSlots))...)
		}
		for b := 0; b < nb; b++ {
			if cap(rb.blockSlots[b]) < n {
				rb.blockSlots[b] = make([]destSlot, n)
			}
			rb.blockSlots[b] = rb.blockSlots[b][:n]
		}
	}
	// Sender w stamps base+w+1, so a slot stamped at or below base has not
	// been reached this round; stamps only grow across rounds.
	base := rb.chargeStamp
	rb.chargeStamp += int64(n)

	block := func(b int) {
		var slots []destSlot
		if perDest {
			slots = rb.blockSlots[b]
		}
		var gSend, gRecv []int64
		var gHit []bool
		if groupOf != nil {
			gSend = rb.grpSend[b*groups : (b+1)*groups]
			gRecv = rb.grpRecv[b*groups : (b+1)*groups]
			gHit = rb.grpHit[b*groups : (b+1)*groups]
		}
		touch := rb.rangeTouch[b][:0]
		rb.rangeErr[b] = deliverErrCand{}
	senders:
		for w := rb.senderCut[b]; w < rb.senderCut[b+1]; w++ {
			buf := rb.send[w].buf
			st := base + int64(w) + 1
			gw := w
			if groupOf != nil {
				gw = groupOf[w]
			}
			for i := 0; i < len(buf); {
				to, nw := unpackHeader(buf[i])
				fi := i
				i += frameHeader + nw
				if to < 0 || to >= n {
					rb.rangeErr[b] = deliverErrCand{ok: true, w: w, i: fi,
						err: RouteError{OutOfRange: true, From: w, To: to}}
					break senders
				}
				if perDest {
					sl := &slots[to]
					if sl.stamp != st {
						if sl.stamp <= base {
							sl.recv = 0
							touch = append(touch, int32(to))
						}
						sl.stamp = st
						sl.pair = 0
					}
					sl.pair += int64(nw)
					sl.recv += int64(nw)
					if opts.PairWords > 0 && sl.pair > int64(opts.PairWords) {
						rb.rangeErr[b] = deliverErrCand{ok: true, w: w, i: fi,
							err: RouteError{From: w, To: to, Words: int(sl.pair), Budget: opts.PairWords}}
						break senders
					}
				}
				if groupOf != nil {
					gt := groupOf[to]
					if !opts.FreeIntraGroup || gt != gw {
						gSend[gw] += int64(nw)
						gRecv[gt] += int64(nw)
						gHit[gw] = true
						gHit[gt] = true
					}
				}
			}
		}
		rb.rangeTouch[b] = touch
	}
	opts.Pool.RunHeavy(nb, block)

	for b := 0; b < nb; b++ {
		if c := &rb.rangeErr[b]; c.ok {
			e := c.err
			return RoundStats{}, &e
		}
	}
	if groupOf != nil {
		return rb.stats(rb.mergeGroups(nb, groups)), nil
	}
	ep := rb.epoch
	for b := 0; b < nb; b++ {
		slots := rb.blockSlots[b]
		for _, d := range rb.rangeTouch[b] {
			if rb.gStamp[d] != ep {
				rb.gStamp[d] = ep
				rb.tgroups = append(rb.tgroups, d)
				rb.sendLoad[d] = 0
				rb.recvLoad[d] = 0
			}
			rb.recvLoad[d] += slots[d].recv
		}
	}
	return rb.stats(rb.chargeSenders()), nil
}

// insertionSortByWords orders an equal-sender run lexicographically by
// payload. Runs are bounded by the per-pair message count (a small constant
// under the bandwidth budget), so insertion sort wins over sort.Slice and
// allocates nothing.
func insertionSortByWords(run []Msg) {
	for i := 1; i < len(run); i++ {
		m := run[i]
		j := i - 1
		for j >= 0 && lessWords(m.Words, run[j].Words) {
			run[j+1] = run[j]
			j--
		}
		run[j+1] = m
	}
}
