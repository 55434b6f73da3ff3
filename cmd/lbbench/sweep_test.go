package main

import (
	"runtime"
	"strconv"
	"testing"
)

// TestSweepRows runs a small sweep: one sequential row per n, plus a
// worker-pool row when GOMAXPROCS > 1, each timing at least one round of
// each kind, preamble and body, which the row reports apart. The
// banked network retains no heap object per node, so at n = 20,000 its
// fixed number of objects reads below 0.01 per node.
func TestSweepRows(t *testing.T) {
	tbl, err := runSweep([]int{20_000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1
	if runtime.GOMAXPROCS(0) > 1 {
		want = 2
	}
	if len(tbl.Rows) != want {
		t.Fatalf("%d rows, want %d:\n%s", len(tbl.Rows), want, tbl)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(tbl.Columns))
		}
		for _, c := range []int{7, 8, 9} { // ns/round, then its preamble and body split
			if ns, err := strconv.ParseInt(row[c], 10, 64); err != nil || ns <= 0 {
				t.Errorf("row %v: %s %q", row, tbl.Columns[c], row[c])
			}
		}
		if b, err := strconv.ParseFloat(row[4], 64); err != nil || b <= 0 {
			t.Errorf("row %v: heap B/node %q", row, row[4])
		}
		if o, err := strconv.ParseFloat(row[5], 64); err != nil || o >= 0.01 {
			t.Errorf("row %v: objects/node %q, want < 0.01", row, row[5])
		}
	}
	if _, err := runSweep([]int{1}, 1); err == nil {
		t.Error("a one-node sweep was accepted")
	}
}
