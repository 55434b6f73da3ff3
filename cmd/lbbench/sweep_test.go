package main

import (
	"runtime"
	"strconv"
	"testing"
)

// TestSweepRows runs a small sweep: one sequential row per n, plus a
// worker-pool row when GOMAXPROCS > 1, each timing at least one round.
func TestSweepRows(t *testing.T) {
	tbl, err := runSweep([]int{400}, 1)
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
		if ns, err := strconv.ParseInt(row[5], 10, 64); err != nil || ns <= 0 {
			t.Errorf("row %v: ns/round %q", row, row[5])
		}
	}
	if _, err := runSweep([]int{1}, 1); err == nil {
		t.Error("a one-node sweep was accepted")
	}
}
