package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSON trace format makes executions portable: cmd/lbsim can dump a
// trace for offline analysis. Payloads are serialised with fmt.Sprint (they
// are opaque to the trace).

// eventJSON is the wire form of an Event.
type eventJSON struct {
	Round   int    `json:"round"`
	Node    int    `json:"node"`
	Kind    string `json:"kind"`
	From    int    `json:"from,omitempty"`
	MsgID   int64  `json:"msg_id,omitempty"`
	Payload string `json:"payload,omitempty"`
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
