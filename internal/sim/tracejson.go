package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The JSON trace format makes executions portable: cmd/lbsim can dump a
// trace for offline analysis, and golden-file tests can pin executions.
// Payloads are serialised with fmt.Sprint (they are opaque to the trace).

// traceJSON is the wire form of a Trace.
type traceJSON struct {
	RoundsRun     int         `json:"rounds_run"`
	Transmissions int         `json:"transmissions"`
	Deliveries    int         `json:"deliveries"`
	Collisions    int         `json:"collisions"`
	Events        []eventJSON `json:"events"`
}

// eventJSON is the wire form of an Event.
type eventJSON struct {
	Round   int    `json:"round"`
	Node    int    `json:"node"`
	Kind    string `json:"kind"`
	From    int    `json:"from,omitempty"`
	MsgID   int64  `json:"msg_id,omitempty"`
	Payload string `json:"payload,omitempty"`
}

// kindFromString inverts EventKind.String for the kinds the trace emits.
func kindFromString(s string) (EventKind, error) {
	for _, k := range []EventKind{EvBcast, EvAck, EvRecv, EvDecide, EvHear} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown event kind %q", s)
}

// WriteJSON serialises the trace. Events are streamed one at a time from the
// columnar store, so serialisation never materialises a row-form []Event —
// the trace's own columns stay the only full-size copy in memory.
func (tr *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n \"rounds_run\": %d,\n \"transmissions\": %d,\n \"deliveries\": %d,\n \"collisions\": %d,\n \"events\": ",
		tr.RoundsRun, tr.Transmissions, tr.Deliveries, tr.Collisions)
	if tr.Len() == 0 {
		bw.WriteString("[]\n}\n")
		return bw.Flush()
	}
	bw.WriteString("[\n")
	first := true
	for ev := range tr.Events() {
		ej := eventJSON{
			Round: ev.Round,
			Node:  ev.Node,
			Kind:  ev.Kind.String(),
			From:  ev.From,
			MsgID: int64(ev.MsgID),
		}
		if ev.Payload != nil {
			ej.Payload = fmt.Sprint(ev.Payload)
		}
		b, err := json.MarshalIndent(ej, "  ", " ")
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString("  ")
		bw.Write(b)
	}
	bw.WriteString("\n ]\n}\n")
	return bw.Flush()
}

// ReadTraceJSON deserialises a trace written by WriteJSON. Payloads come
// back as strings (their printed form). Rounds, nodes and transmitter ids
// outside int32, the trace's column width, are rejected rather than
// wrapped.
func ReadTraceJSON(r io.Reader) (*Trace, error) {
	var in traceJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("sim: decoding trace: %w", err)
	}
	tr := &Trace{
		RoundsRun:     in.RoundsRun,
		Transmissions: in.Transmissions,
		Deliveries:    in.Deliveries,
		Collisions:    in.Collisions,
	}
	for i, ej := range in.Events {
		kind, err := kindFromString(ej.Kind)
		if err != nil {
			return nil, err
		}
		for _, f := range [...]struct {
			name string
			v    int
		}{{"round", ej.Round}, {"node", ej.Node}, {"from", ej.From}} {
			if f.v < math.MinInt32 || f.v > math.MaxInt32 {
				return nil, fmt.Errorf("sim: trace event %d: %s %d outside int32", i, f.name, f.v)
			}
		}
		ev := Event{
			Round: ej.Round,
			Node:  ej.Node,
			Kind:  kind,
			From:  ej.From,
			MsgID: MsgID(ej.MsgID),
		}
		if ej.Payload != "" {
			ev.Payload = ej.Payload
		}
		tr.Record(ev)
	}
	return tr, nil
}
