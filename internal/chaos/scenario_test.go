package chaos

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestHostileScenariosRejected pins the document's size bounds: a node
// count above MaxN is a decode error, and a run whose phases exceed
// core.MaxRounds rounds is a Run error, before either builds anything.
func TestHostileScenariosRejected(t *testing.T) {
	for _, n := range []int{1_000_000_000_000, MaxN + 1} {
		doc := fmt.Sprintf(`{"schema":"lbcast-chaos/v1","seed":1,"n":%d,"phases":3,"eps":0.2,"model":"sinr","senders":1}`, n)
		if _, err := ReadScenario(strings.NewReader(doc)); err == nil {
			t.Errorf("n = %d accepted", n)
		}
	}
	sc, err := Generate(5, GenOptions{MaxN: 24})
	if err != nil {
		t.Fatal(err)
	}
	sc.Phases, sc.Plan = math.MaxInt32, nil
	if _, err := Run(sc, RunOptions{}); err == nil || !strings.Contains(err.Error(), "phases") {
		t.Errorf("Run of %d phases: error %v, want one naming phases", sc.Phases, err)
	}
}

// FuzzReadScenario feeds arbitrary bytes to the repro decoder: it returns
// an error or a scenario Validate accepts, never panics, and an accepted
// scenario writes a document that reads back to the same bytes.
func FuzzReadScenario(f *testing.F) {
	for _, opt := range []GenOptions{{}, {MaxN: 40, Fault: true}} {
		sc, err := Generate(1_000_004, opt) // the second is E-CHAOS's small canary at seed 1
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"schema":"lbcast-chaos/v1","seed":1,"n":1000000000000,"phases":3,"eps":0.2,"model":"sinr","senders":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ReadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted a scenario Validate rejects: %v", err)
		}
		var first, second bytes.Buffer
		if err := sc.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadScenario(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written document does not read back: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the document:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
