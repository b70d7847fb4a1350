// Package fabrictest reads a round's frames back as inboxes, for tests that
// check what a round carried. No fabric builds inboxes; Inboxes runs a
// placing round and sorts what it placed.
package fabrictest

import (
	"slices"
	"sort"

	"ccolor/internal/fabric"
)

// Inboxes runs one placing round on f and returns per-destination inboxes:
// every frame as a Msg carrying its sender and a copy of its payload,
// ordered by sender, then payload (SortInbox). The round is validated and
// charged like any other; on an error there are no inboxes.
func Inboxes(f fabric.Fabric, stage func(w int, sb *fabric.SendBuf)) ([][]fabric.Msg, error) {
	n := f.Workers()
	// One goroutine places each sender's frames, so per-sender lists need
	// no lock.
	sent := make([][]fabric.Msg, n)
	err := fabric.PlaceFrames(f, func(from, to int, payload []uint64) {
		sent[from] = append(sent[from], fabric.Msg{To: to, From: from, Words: slices.Clone(payload)})
	}, stage)
	if err != nil {
		return nil, err
	}
	in := make([][]fabric.Msg, n)
	for _, msgs := range sent {
		for _, m := range msgs {
			in[m.To] = append(in[m.To], m)
		}
	}
	for _, msgs := range in {
		SortInbox(msgs)
	}
	return in, nil
}

// Stage adapts a per-worker message producer to a staging callback,
// staging each message as one frame in order.
func Stage(produce func(w int) []fabric.Msg) func(w int, sb *fabric.SendBuf) {
	return func(w int, sb *fabric.SendBuf) {
		for _, m := range produce(w) {
			sb.Put(m.To, m.Words...)
		}
	}
}

// SortInbox orders messages by sender, then lexicographically by payload
// (a proper prefix first).
func SortInbox(in []fabric.Msg) {
	sort.Slice(in, func(i, j int) bool {
		if in[i].From != in[j].From {
			return in[i].From < in[j].From
		}
		return slices.Compare(in[i].Words, in[j].Words) < 0
	})
}
