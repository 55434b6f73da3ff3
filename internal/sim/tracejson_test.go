package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// traceDoc is the document WriteJSON emits.
type traceDoc struct {
	RoundsRun     int         `json:"rounds_run"`
	Transmissions int         `json:"transmissions"`
	Deliveries    int         `json:"deliveries"`
	Collisions    int         `json:"collisions"`
	Events        []eventJSON `json:"events"`
}

// decodeTrace writes tr with WriteJSON and decodes it with encoding/json.
func decodeTrace(t *testing.T, tr *Trace) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output does not decode: %v\n%s", err, buf.String())
	}
	return doc
}

// TestTraceJSONRoundTrip decodes WriteJSON's output with encoding/json and
// checks the counters and every event field, payloads in printed form.
func TestTraceJSONRoundTrip(t *testing.T) {
	doc := decodeTrace(t, sampleTrace())
	if doc.RoundsRun != 10 || doc.Transmissions != 5 || doc.Deliveries != 3 || doc.Collisions != 1 {
		t.Errorf("stats mismatch: %+v", doc)
	}
	msg := int64(NewMsgID(0, 1))
	want := []eventJSON{
		{Round: 1, Node: 0, Kind: "bcast", MsgID: msg, Payload: "hello"},
		{Round: 2, Node: 1, Kind: "hear", From: 0, MsgID: msg},
		{Round: 2, Node: 1, Kind: "recv", From: 0, MsgID: msg},
		{Round: 4, Node: 2, Kind: "decide", From: 7},
		{Round: 9, Node: 0, Kind: "ack", MsgID: msg},
	}
	if !reflect.DeepEqual(doc.Events, want) {
		t.Errorf("events = %+v, want %+v", doc.Events, want)
	}
}

func TestTraceJSONEmpty(t *testing.T) {
	doc := decodeTrace(t, &Trace{})
	if doc.Events == nil || len(doc.Events) != 0 || doc.RoundsRun != 0 {
		t.Errorf("empty trace decodes as %+v, want an empty events array", doc)
	}
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
