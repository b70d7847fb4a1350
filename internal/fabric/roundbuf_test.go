package fabric

import (
	"errors"
	"reflect"
	"testing"
)

func stageInto(rb *RoundBuffer, w int, msgs ...Msg) {
	sb := rb.Sender(w)
	for _, m := range msgs {
		sb.Put(m.To, m.Words...)
	}
}

// TestRoundBufferPlacesInStagingOrder: a placing round hands every frame
// to its callback with its sender, one sender's frames in staging order,
// and charges the round's words and loads.
func TestRoundBufferPlacesInStagingOrder(t *testing.T) {
	rb := AcquireRoundBuffer(4)
	defer ReleaseRoundBuffer(rb)
	// Worker 2 sends two messages to 0 out of payload order; worker 1 sends
	// one.
	stageInto(rb, 2, Msg{To: 0, Words: []uint64{9, 1}}, Msg{To: 0, Words: []uint64{3}})
	stageInto(rb, 1, Msg{To: 0, Words: []uint64{7}})
	log := newPlaceLog(4)
	stats, err := rb.Deliver(DeliverOpts{Sink: Sink{Place: log.place}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Msg{1: {{To: 0, From: 1, Words: []uint64{7}}},
		2: {{To: 0, From: 2, Words: []uint64{9, 1}}, {To: 0, From: 2, Words: []uint64{3}}}, 3: nil}
	if !reflect.DeepEqual([][]Msg(log), want) {
		t.Fatalf("placed %+v, want %+v", log, want)
	}
	if stats.TotalWords != 4 || stats.MaxSendLoad != 3 || stats.MaxRecvLoad != 4 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRoundBufferPairBudget(t *testing.T) {
	rb := AcquireRoundBuffer(3)
	defer ReleaseRoundBuffer(rb)
	stageInto(rb, 0, Msg{To: 1, Words: []uint64{1, 2}}, Msg{To: 1, Words: []uint64{3}})
	_, err := rb.Deliver(DeliverOpts{PairWords: 2})
	var re *RouteError
	if !errors.As(err, &re) || re.OutOfRange || re.From != 0 || re.To != 1 || re.Words != 3 {
		t.Fatalf("want pair-budget RouteError(0→1, 3 words), got %v", err)
	}
}

func TestRoundBufferOutOfRange(t *testing.T) {
	rb := AcquireRoundBuffer(2)
	defer ReleaseRoundBuffer(rb)
	stageInto(rb, 1, Msg{To: 5, Words: []uint64{1}})
	_, err := rb.Deliver(DeliverOpts{})
	var re *RouteError
	if !errors.As(err, &re) || !re.OutOfRange || re.From != 1 || re.To != 5 {
		t.Fatalf("want out-of-range RouteError(1→5), got %v", err)
	}
}

func TestRoundBufferGroupedLoads(t *testing.T) {
	rb := AcquireRoundBuffer(4)
	defer ReleaseRoundBuffer(rb)
	groupOf := []int{0, 0, 1, 1}
	// 0→1 intra-group (free), 0→2 cross (2 words), 3→0 cross (1 word).
	stageInto(rb, 0, Msg{To: 1, Words: []uint64{5}}, Msg{To: 2, Words: []uint64{6, 7}})
	stageInto(rb, 3, Msg{To: 0, Words: []uint64{8}})
	log := newPlaceLog(4)
	stats, err := rb.Deliver(DeliverOpts{GroupOf: groupOf, Groups: 2, FreeIntraGroup: true, Sink: Sink{Place: log.place}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWords != 3 {
		t.Fatalf("total = %d, want 3 (intra-group traffic free)", stats.TotalWords)
	}
	if stats.SendLoad[0] != 2 || stats.SendLoad[1] != 1 || stats.RecvLoad[0] != 1 || stats.RecvLoad[1] != 2 {
		t.Fatalf("loads: send=%v recv=%v", stats.SendLoad, stats.RecvLoad)
	}
	// Intra-group message still placed.
	if len(log[0]) != 2 || log[0][0].To != 1 || log[0][0].Words[0] != 5 {
		t.Fatalf("intra-group message not placed: %+v", log[0])
	}
}

func TestSendBufBeginGrowthKeepsEarlierPayloads(t *testing.T) {
	var sb SendBuf
	sb.reset()
	p1 := sb.Begin(1, 2)
	p1[0], p1[1] = 11, 12
	// Force growth several times; earlier frames must stay intact in buf.
	for i := 0; i < 64; i++ {
		p := sb.Begin(1, 17)
		for j := range p {
			p[j] = uint64(i)
		}
	}
	msgs := sb.messages()
	if len(msgs) != 65 {
		t.Fatalf("got %d msgs", len(msgs))
	}
	if msgs[0].Words[0] != 11 || msgs[0].Words[1] != 12 {
		t.Fatalf("first frame corrupted after growth: %+v", msgs[0])
	}
}
