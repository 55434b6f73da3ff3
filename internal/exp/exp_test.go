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
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d entries", len(IDs()))
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

// smallTablePins are FNV-64a hashes of the rendered tables, at SizeSmall
// and seed 1, of the experiments whose networks buildLBNetwork assembles
// and its lbspec.Monitor judges, of E-SINR (baseline.Chatter noise over the
// SINR model) and of E-AMAC (one shared phase plan per deployment).
var smallTablePins = map[string]uint64{
	"E-PROG":      0x738c6ff6879ec84d,
	"E-ACK":       0x375079bd21fdbdd2,
	"E-RECV-PROB": 0x098f399a7ad5cad5,
	"E-DET":       0x41ce76aff0a98e32,
	"E-ADV":       0xbb80e788aa67e847,
	"E-LOWER":     0x776dbb760643bfbe,
	"E-LOCAL":     0xc4a020bac6f72d85,
	"E-ABL-FREQ":  0x0c453d701cdb9558,
	"E-CONST":     0x3a925efd9cb06801,
	"E-SINR":      0xd83b40456064338b,
	"E-AMAC":      0x4d59acad2be17051,
}

// TestAllExperimentsSmall executes the entire suite at small size: every
// claim reproduction must run end to end and render non-empty tables, and
// the tables of smallTablePins must hash to their pinned values.
// This is the repository's main integration test.
func TestAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
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
			if want, ok := smallTablePins[e.ID]; ok && h.Sum64() != want {
				t.Errorf("tables hash to %#016x, pinned %#016x", h.Sum64(), want)
			}
		})
	}
}
