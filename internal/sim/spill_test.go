package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// fillTrace records the same deterministic event mix into tr: enough events
// to seal several chunks, all kinds represented, sparse payloads on the
// bcast inputs.
func fillTrace(tr *Trace, n int) {
	for i := 0; i < n; i++ {
		ev := Event{Round: i/7 + 1, Node: i % 11, From: NoTransmitter, MsgID: NewMsgID(i%11, i/11)}
		switch i % 97 {
		case 0:
			ev.Kind, ev.Payload = EvBcast, fmt.Sprintf("payload-%d", i)
		case 1:
			ev.Kind = EvAck
		case 2:
			ev.Kind, ev.From = EvRecv, (i+1)%11
		default:
			ev.Kind, ev.From = EvHear, (i+1)%11
		}
		tr.Record(ev)
	}
}

// TestSpillRoundTrip: a trace spilling to disk must serve the identical
// event sequence as an in-memory trace over every read path — WriteJSON
// byte-identical, At/ByKind element-identical — while actually holding most
// chunks on disk.
func TestSpillRoundTrip(t *testing.T) {
	const n = 6*eventChunkLen + 123
	mem, spilled := &Trace{}, &Trace{}
	if err := spilled.SpillToDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer spilled.CloseSpill()
	fillTrace(mem, n)
	fillTrace(spilled, n)

	if err := spilled.SpillError(); err != nil {
		t.Fatal(err)
	}
	inMem := 0
	for _, c := range spilled.store.chunks {
		if c != nil {
			inMem++
		}
	}
	if want := spillRetainDefault + 1; inMem != want {
		t.Errorf("%d chunks resident, want the retention window %d", inMem, want)
	}

	var wantJSON, gotJSON bytes.Buffer
	if err := mem.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := spilled.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Error("WriteJSON of spilled trace differs from in-memory trace")
	}

	if mem.Len() != spilled.Len() {
		t.Fatalf("Len %d vs %d", spilled.Len(), mem.Len())
	}
	// Random-access At across spilled and resident chunks (stride keeps the
	// test fast while crossing every chunk).
	for i := 0; i < n; i += 731 {
		if got, want := spilled.At(i), mem.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	for _, kind := range []EventKind{EvBcast, EvAck, EvRecv, EvHear} {
		got, want := spilled.ByKind(kind), mem.ByKind(kind)
		if len(got) != len(want) {
			t.Fatalf("ByKind(%v): %d events, want %d", kind, len(got), len(want))
		}
	}
}

// TestSpillEnableMidRun: chunks sealed before SpillToDisk move to disk at
// the next seal, and the trace stays identical throughout.
func TestSpillEnableMidRun(t *testing.T) {
	const n = 5*eventChunkLen + 17
	mem, spilled := &Trace{}, &Trace{}
	fillTrace(mem, n)
	fillTrace(spilled, 2*eventChunkLen+5) // two sealed chunks, one active
	if err := spilled.SpillToDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer spilled.CloseSpill()
	fillTraceFrom(spilled, 2*eventChunkLen+5, n)
	if onDisk(spilled) == 0 {
		t.Fatal("no chunks spilled after mid-run enable")
	}
	for i := 0; i < n; i += 613 {
		if got, want := spilled.At(i), mem.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
}

// fillTraceFrom continues fillTrace's deterministic sequence from event lo.
func fillTraceFrom(tr *Trace, lo, hi int) {
	full := &Trace{}
	fillTrace(full, hi)
	for i := lo; i < hi; i++ {
		tr.Record(full.At(i))
	}
}

// TestSpillDiscardBefore: DiscardBefore must keep its exact semantics when
// the head chunks it releases were already spilled — logical indices
// unchanged, the retained suffix identical, released indices panicking.
func TestSpillDiscardBefore(t *testing.T) {
	const n = 6*eventChunkLen + 50
	mem, spilled := &Trace{}, &Trace{}
	if err := spilled.SpillToDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer spilled.CloseSpill()
	fillTrace(mem, n)
	fillTrace(spilled, n)

	cut := 3*eventChunkLen + 40 // releases three chunks, all already on disk
	mem.DiscardBefore(cut)
	spilled.DiscardBefore(cut)
	if got, want := discarded(spilled), discarded(mem); got != want {
		t.Fatalf("Discarded = %d, want %d", got, want)
	}
	for i := discarded(spilled); i < n; i += 509 {
		if got, want := spilled.At(i), mem.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	// Appending after a discard keeps spilling at the right absolute slots.
	fillTraceFrom(spilled, n, n+2*eventChunkLen)
	fillTraceFrom(mem, n, n+2*eventChunkLen)
	for i := discarded(spilled); i < n+2*eventChunkLen; i += 509 {
		if got, want := spilled.At(i), mem.At(i); got != want {
			t.Fatalf("after append: At(%d) = %+v, want %+v", i, got, want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At below the retained suffix did not panic")
			}
		}()
		spilled.At(0)
	}()
}

// onDisk counts the chunks whose in-memory copy was dropped after spilling.
func onDisk(tr *Trace) int {
	n := 0
	for _, c := range tr.store.chunks {
		if c == nil {
			n++
		}
	}
	return n
}
