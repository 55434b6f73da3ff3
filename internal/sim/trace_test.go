package sim

import (
	"fmt"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
)

// TestColumnarStoreRoundTrip pushes well past several chunk boundaries and
// checks positional access, iteration order, the sparse payload table and
// the per-kind counters all reassemble the recorded events exactly.
func TestColumnarStoreRoundTrip(t *testing.T) {
	tr := &Trace{}
	const total = 3*eventChunkLen + 137
	kinds := []EventKind{EvBcast, EvAck, EvRecv, EvDecide, EvHear}
	want := make([]Event, total)
	for i := 0; i < total; i++ {
		ev := Event{
			Round: i/7 + 1,
			Node:  i % 53,
			Kind:  kinds[i%len(kinds)],
			From:  i%29 - 1,
			MsgID: NewMsgID(i%53, i/53),
		}
		// Sparse payloads: one event in 97 carries one.
		if i%97 == 0 {
			ev.Payload = fmt.Sprintf("p%d", i)
		}
		want[i] = ev
		tr.Record(ev)
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	for i := 0; i < total; i++ {
		if got := tr.At(i); got != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
		}
	}
	i := 0
	for ev := range tr.Events() {
		if ev != want[i] {
			t.Fatalf("iterator event %d = %+v, want %+v", i, ev, want[i])
		}
		i++
	}
	if i != total {
		t.Fatalf("iterator yielded %d events, want %d", i, total)
	}
	for _, k := range kinds {
		wantCount := 0
		for _, ev := range want {
			if ev.Kind == k {
				wantCount++
			}
		}
		byKind := tr.ByKind(k)
		if len(byKind) != wantCount {
			t.Errorf("ByKind(%v) returned %d events, want %d", k, len(byKind), wantCount)
		}
		if cap(byKind) != wantCount {
			t.Errorf("ByKind(%v) cap = %d, want exactly %d (preallocation contract)", k, cap(byKind), wantCount)
		}
	}
}

// TestByKindByNodeEmpty pins nil results for absent kinds and nodes.
func TestByKindByNodeEmpty(t *testing.T) {
	tr := &Trace{}
	tr.Record(Event{Round: 1, Node: 0, Kind: EvBcast})
	if got := tr.ByKind(EvDecide); got != nil {
		t.Errorf("ByKind(EvDecide) = %v, want nil", got)
	}
	if got := tr.ByKind(EventKind(99)); got != nil {
		t.Errorf("ByKind(99) = %v, want nil", got)
	}
}

// BenchmarkTracedRound measures the steady-state cost of rounds that record
// one trace event per delivery (the chatty workload): the columnar store's
// per-event bytes are the dominant steady-state allocation.
func BenchmarkTracedRound(b *testing.B) {
	d, err := dualgraph.RandomGeometric(500, 10, 10, 2, dualgraph.GreyUnreliable, benchRng())
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]Process, d.N())
	for u := range procs {
		procs[u] = &chattyProc{p: 0.2}
	}
	e, err := New(Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.5, 3), Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	e.Run(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestDiscardBefore pins the chunk-release contract: logical indexing of
// the retained suffix is unchanged, released indices panic, sparse payloads
// are trimmed with their chunks, and continued recording works.
func TestDiscardBefore(t *testing.T) {
	tr := &Trace{}
	const total = 3*eventChunkLen + 10
	want := make([]Event, total)
	for i := 0; i < total; i++ {
		ev := Event{Round: i/5 + 1, Node: i % 17, Kind: EvHear, From: -1, MsgID: NewMsgID(i%17, i)}
		if i%eventChunkLen == 3 {
			ev.Payload = fmt.Sprintf("p%d", i)
		}
		want[i] = ev
		tr.Record(ev)
	}

	// Mid-chunk cutoff: only the full chunks before it are released.
	tr.DiscardBefore(eventChunkLen + 7)
	if got := discarded(tr); got != eventChunkLen {
		t.Fatalf("Discarded = %d, want %d", got, eventChunkLen)
	}
	if tr.Len() != total {
		t.Fatalf("Len changed to %d after discard", tr.Len())
	}
	for i := discarded(tr); i < total; i++ {
		if got := tr.At(i); got != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
		}
	}
	i := discarded(tr)
	for ev := range tr.Events() {
		if ev != want[i] {
			t.Fatalf("iterator event %d = %+v, want %+v", i, ev, want[i])
		}
		i++
	}
	if i != total {
		t.Fatalf("iterator stopped at %d, want %d", i, total)
	}

	// A released index must panic, not silently return the wrong event.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At on a released index did not panic")
			}
		}()
		_ = tr.At(0)
	}()

	// Discarding is idempotent for an already-released prefix, and
	// recording continues to extend the retained suffix.
	tr.DiscardBefore(eventChunkLen)
	extra := Event{Round: 999, Node: 1, Kind: EvBcast, MsgID: NewMsgID(1, 999), Payload: "tail"}
	tr.Record(extra)
	if got := tr.At(total); got != extra {
		t.Fatalf("post-discard record: At(%d) = %+v, want %+v", total, got, extra)
	}

	// Release everything recorded so far: Len is clamped, only the partial
	// tail chunk survives.
	tr.DiscardBefore(tr.Len() + 500)
	if got, min := discarded(tr), 3*eventChunkLen; got != min {
		t.Fatalf("full discard: Discarded = %d, want %d", got, min)
	}
	if got := tr.At(total); got != extra {
		t.Fatalf("tail lost after full discard: At(%d) = %+v", total, got)
	}
}

// discarded returns the index of the first retained event: 0 unless
// DiscardBefore has released head chunks.
func discarded(tr *Trace) int { return tr.store.droppedChunks * eventChunkLen }
