package exp

import (
	"hash/fnv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"E-SEED-DELTA", "E-SEED-TIME", "E-SEED-SPEC",
		"E-PROG", "E-ACK", "E-RECV-PROB", "E-DET",
		"E-ADV", "E-LOWER", "E-ADAPT",
		"E-LOCAL", "E-REGION", "E-AMAC",
		"E-ABL-FREQ", "E-CONST",
		"E-MMB", "E-CONSENSUS",
		"E-COMPARE", "E-SINR", "E-CHURN", "E-CHAOS", "E-LOAD",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("E-NOPE"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

func TestParseSize(t *testing.T) {
	for s, want := range map[string]Size{"small": SizeSmall, "medium": SizeMedium, "full": SizeFull} {
		got, err := ParseSize(s)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("ParseSize accepted junk")
	}
}

func TestPick(t *testing.T) {
	if pick(SizeSmall, 1, 2, 3) != 1 || pick(SizeMedium, 1, 2, 3) != 2 || pick(SizeFull, 1, 2, 3) != 3 {
		t.Error("pick returned wrong preset")
	}
}

func TestSenderRange(t *testing.T) {
	got := senderRange(3)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("senderRange(3) = %v", got)
	}
}

// smallTablePins are FNV-64a hashes of every registered experiment's
// rendered tables at SizeSmall and seed 1. A table that moves is a declared
// change: re-pin it in the change that moves it, never to make a test pass.
var smallTablePins = map[string]uint64{
	"E-SEED-DELTA": 0x94a1bd7003147b41,
	"E-SEED-TIME":  0x5f71d0de6eda9865,
	"E-SEED-SPEC":  0xa5ae27e46b51e6bd,
	"E-PROG":       0x738c6ff6879ec84d,
	"E-ACK":        0x375079bd21fdbdd2,
	"E-RECV-PROB":  0x098f399a7ad5cad5,
	"E-DET":        0x41ce76aff0a98e32,
	"E-ADV":        0xbb80e788aa67e847,
	"E-LOWER":      0x776dbb760643bfbe,
	"E-ADAPT":      0xe3f76a6b0d02651b,
	"E-LOCAL":      0xc4a020bac6f72d85,
	"E-REGION":     0xdbcf67cedabed32d,
	"E-AMAC":       0x4d59acad2be17051,
	"E-ABL-FREQ":   0x0c453d701cdb9558,
	"E-CONST":      0x3a925efd9cb06801,
	"E-MMB":        0x9ec79f33db47fa1d,
	"E-CONSENSUS":  0x21062d243b9df31c,
	"E-COMPARE":    0x853d0389a6b993de,
	"E-SINR":       0xd83b40456064338b,
	"E-CHURN":      0x755e734808829930,
	"E-CHAOS":      0xcdd5aa94dab0b471,
	"E-LOAD":       0xd8ec25eebe1b3fe5,
}

// TestAllExperimentsSmall executes the entire suite at small size: every
// claim reproduction must run end to end and render non-empty tables. Each
// experiment runs twice and must hash the same both times — Go randomises
// map iteration, so a table built by ranging over a map fails here — and
// to its pin in smallTablePins, which must name every registered
// experiment. This is the repository's main integration test.
func TestAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first := tablesHash(t, e)
			if again := tablesHash(t, e); again != first {
				t.Fatalf("two runs hash to %#016x and %#016x: the tables are not deterministic", first, again)
			}
			want, ok := smallTablePins[e.ID]
			if !ok {
				t.Fatalf("no pin: tables hash to %#016x", first)
			}
			if first != want {
				t.Errorf("tables hash to %#016x, pinned %#016x", first, want)
			}
		})
	}
}

// chaosReportPin is the FNV-64a hash of the JSON report `lbsim -exp chaos
// -size small -seed 1` writes. Like smallTablePins, a report that moves is
// a declared change.
const chaosReportPin = 0x1691f1537b12dc6f

// TestChaosReportPinned runs the chaos search and canary twice at SizeSmall
// and seed 1: both JSON reports must hash the same, and to chaosReportPin.
func TestChaosReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos search skipped in -short mode")
	}
	hash := func() uint64 {
		rep, err := RunChaos(SizeSmall, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		if err := rep.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	first := hash()
	if again := hash(); again != first {
		t.Fatalf("two runs hash to %#016x and %#016x: the report is not deterministic", first, again)
	}
	if first != chaosReportPin {
		t.Errorf("report hashes to %#016x, pinned %#016x", first, chaosReportPin)
	}
}

// tablesHash runs e at SizeSmall and seed 1, checks its result's shape and
// returns the FNV-64a hash of its rendered tables.
func tablesHash(t *testing.T, e Experiment) uint64 {
	t.Helper()
	res, err := e.Run(SizeSmall, 1)
	if err != nil {
		t.Fatalf("%s failed: %v", e.ID, err)
	}
	if res.ID != e.ID {
		t.Errorf("result ID %q ≠ experiment ID %q", res.ID, e.ID)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables produced")
	}
	h := fnv.New64a()
	for _, tbl := range res.Tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty", tbl.Title)
		}
		rendered := tbl.String()
		if !strings.Contains(rendered, "##") {
			t.Errorf("table %q renders without a title", tbl.Title)
		}
		h.Write([]byte(rendered))
	}
	return h.Sum64()
}
