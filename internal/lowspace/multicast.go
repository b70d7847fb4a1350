package lowspace

import (
	"fmt"
	"sort"

	"ccolor/internal/fabric"
	"ccolor/internal/graph"
)

// msgPair is one single-word point-to-point delivery.
type msgPair struct {
	from, to int32
	word     uint64
}

// mcastScratch is the solver-persistent schedule scratch behind
// spacedMulticast: the per-pair sub-round assignment and the per-sub-round
// machine load tables, reused across calls.
type mcastScratch struct {
	roundOf []int32
	rounds  []mcastLoad
	order   []int32 // pair indices sorted by (round, from)
	rstart  []int32 // per-round segment offsets into order
}

type mcastLoad struct{ snd, rcv []int64 }

func (l *mcastLoad) reset(machines int) {
	if cap(l.snd) < machines {
		l.snd = make([]int64, machines)
		l.rcv = make([]int64, machines)
		return
	}
	l.snd = l.snd[:machines]
	l.rcv = l.rcv[:machines]
	clear(l.snd)
	clear(l.rcv)
}

// spacedMulticast delivers the pairs over as few rounds as per-machine
// space admits: a greedy schedule packs each pair into the earliest
// sub-round where both its source machine's send load and its target
// machine's receive load stay within half of 𝔰. A node whose fan-out
// exceeds 𝔰 (e.g. a star center) therefore takes ⌈deg/(𝔰/2)⌉ sub-rounds —
// the serialized rendering of what the paper's M_v^N chunk machines do in
// parallel from different machines. Load accounting is machine-indexed
// slices (one pair per sub-round) from the solver's persistent scratch,
// not per-call allocations.
func (s *solver) spacedMulticast(phase string, pairs []msgPair) error {
	if len(pairs) == 0 {
		return nil
	}
	budget := s.trace.SpaceWords / 2
	if budget < 1 {
		budget = 1
	}
	machines := s.cluster.Machines()
	mws := &s.mws
	roundOf := graph.Grow(mws.roundOf, len(pairs))
	nrounds := 0
	for i, p := range pairs {
		fm, tm := s.cluster.MachineOf(int(p.from)), s.cluster.MachineOf(int(p.to))
		placed := false
		for r := 0; r < nrounds; r++ {
			if fm == tm {
				// Intra-machine traffic is free; round 0 always fits.
				roundOf[i] = 0
				placed = true
				break
			}
			if mws.rounds[r].snd[fm] < budget && mws.rounds[r].rcv[tm] < budget {
				mws.rounds[r].snd[fm]++
				mws.rounds[r].rcv[tm]++
				roundOf[i] = int32(r)
				placed = true
				break
			}
		}
		if !placed {
			if nrounds == len(mws.rounds) {
				mws.rounds = append(mws.rounds, mcastLoad{})
			}
			l := &mws.rounds[nrounds]
			l.reset(machines)
			if fm != tm {
				l.snd[fm]++
				l.rcv[tm]++
			}
			roundOf[i] = int32(nrounds)
			nrounds++
		}
	}
	mws.roundOf = roundOf
	// Bucket the pairs by (sub-round, sender) so each sub-round's staging
	// callback touches only its own worker's pairs: the naive form scanned
	// every pair from every worker, an O(workers·pairs) term per sub-round
	// that dominated large-n solves.
	order := graph.Grow(mws.order, len(pairs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if roundOf[ia] != roundOf[ib] {
			return roundOf[ia] < roundOf[ib]
		}
		if pairs[ia].from != pairs[ib].from {
			return pairs[ia].from < pairs[ib].from
		}
		return ia < ib // keep staging order per (round, sender) stable
	})
	mws.order = order
	rstart := graph.Grow(mws.rstart, nrounds+1)
	pos := 0
	for r := 0; r <= nrounds; r++ {
		for pos < len(order) && int(roundOf[order[pos]]) < r {
			pos++
		}
		rstart[r] = int32(pos)
	}
	rstart[nrounds] = int32(len(order))
	mws.rstart = rstart
	s.cluster.Ledger().SetPhase(phase)
	for r := 0; r < nrounds; r++ {
		seg := order[rstart[r]:rstart[r+1]]
		if err := fabric.SendFrames(s.cluster, func(w int, sb *fabric.SendBuf) {
			lo := sort.Search(len(seg), func(k int) bool { return int(pairs[seg[k]].from) >= w })
			for _, idx := range seg[lo:] {
				p := pairs[idx]
				if int(p.from) != w {
					break
				}
				sb.Put(int(p.to), p.word)
			}
		}); err != nil {
			return fmt.Errorf("lowspace: %s sub-round %d: %w", phase, r, err)
		}
	}
	return nil
}
