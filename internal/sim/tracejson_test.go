package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lbcast/internal/dualgraph"
)

// sampleTrace holds one event of every kind the JSON form carries.
func sampleTrace() *Trace {
	tr := &Trace{RoundsRun: 10, Transmissions: 5, Deliveries: 3, Collisions: 1}
	tr.Record(Event{Round: 1, Node: 0, Kind: EvBcast, MsgID: NewMsgID(0, 1), Payload: "hello"})
	tr.Record(Event{Round: 2, Node: 1, Kind: EvHear, From: 0, MsgID: NewMsgID(0, 1)})
	tr.Record(Event{Round: 2, Node: 1, Kind: EvRecv, From: 0, MsgID: NewMsgID(0, 1)})
	tr.Record(Event{Round: 4, Node: 2, Kind: EvDecide, From: 7})
	tr.Record(Event{Round: 9, Node: 0, Kind: EvAck, MsgID: NewMsgID(0, 1)})
	return tr
}

// outOfRangeTrace carries a round, a node and a from that int32 columns
// would wrap.
const outOfRangeTrace = `{"events":[{"round":4294967297,"node":2147483648,"kind":"recv","from":-7}]}`

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.RoundsRun != 10 || got.Transmissions != 5 || got.Deliveries != 3 || got.Collisions != 1 {
		t.Errorf("stats mismatch: %+v", got)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("%d events, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		g, want := got.At(i), tr.At(i)
		if g.Round != want.Round || g.Node != want.Node || g.Kind != want.Kind ||
			g.From != want.From || g.MsgID != want.MsgID {
			t.Errorf("event %d: got %+v, want %+v", i, g, want)
		}
	}
	// Payloads come back as their printed form.
	if got.At(0).Payload != "hello" {
		t.Errorf("payload = %v", got.At(0).Payload)
	}
}

func TestTraceJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.RoundsRun != 0 {
		t.Errorf("empty round trip: %+v", got)
	}
}

func TestTraceJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadTraceJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTraceJSON(strings.NewReader(`{"events":[{"kind":"warp"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if tr, err := ReadTraceJSON(strings.NewReader(outOfRangeTrace)); err == nil {
		t.Errorf("out-of-range event accepted as %+v", tr.At(0))
	} else if !strings.Contains(err.Error(), "event 0") {
		t.Errorf("error %q does not name the event", err)
	}
	for _, in := range []string{
		`{"events":[{"kind":"hear","round":1},{"kind":"hear","node":-2147483649}]}`,
		`{"events":[{"kind":"hear","from":2147483648}]}`,
	} {
		if _, err := ReadTraceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("out-of-range event accepted: %s", in)
		}
	}
	edges := `{"events":[{"kind":"hear","round":2147483647,"node":-2147483648,"from":2147483647}]}`
	if tr, err := ReadTraceJSON(strings.NewReader(edges)); err != nil {
		t.Errorf("int32 limits rejected: %v", err)
	} else if ev := tr.At(0); ev.Round != math.MaxInt32 || ev.Node != math.MinInt32 || ev.From != math.MaxInt32 {
		t.Errorf("int32 limits decoded as %+v", ev)
	}
}

// FuzzReadTraceJSON: the decoder never panics, and any trace it accepts
// re-encodes with WriteJSON and decodes to the same events and counters.
func FuzzReadTraceJSON(f *testing.F) {
	// A small run: three rounds of every node recording one event.
	d := must(f)(dualgraph.Abstract(3, []dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, nil))
	procs := []Process{&recordingProc{}, &recordingProc{}, &recordingProc{}}
	e := newTestEngine(f, Config{Dual: d, Procs: procs})
	e.Run(3)
	for _, tr := range []*Trace{e.Trace(), sampleTrace()} {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(outOfRangeTrace))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTraceJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, buf.String())
		}
		if back.RoundsRun != tr.RoundsRun || back.Transmissions != tr.Transmissions ||
			back.Deliveries != tr.Deliveries || back.Collisions != tr.Collisions {
			t.Fatalf("counters changed: %+v → %+v", tr, back)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("%d events → %d", tr.Len(), back.Len())
		}
		for i := range tr.Len() {
			if g, want := back.At(i), tr.At(i); g != want {
				t.Fatalf("event %d: %+v → %+v", i, want, g)
			}
		}
	})
}

func TestTraceJSONStableFields(t *testing.T) {
	tr := &Trace{RoundsRun: 1}
	tr.Record(Event{Round: 1, Node: 0, Kind: EvBcast, MsgID: NewMsgID(3, 4)})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rounds_run"`, `"events"`, `"kind": "bcast"`, `"msg_id"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("serialised trace missing %s:\n%s", want, buf.String())
		}
	}
}
