package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lbcast/internal/core"
)

// TestRegionMap pins the default picture: a header, one map row per ½
// region of height and one character per ½ region of width.
func TestRegionMap(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 30, 8, 6, 1.5, 1, 0); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.HasPrefix(text, "dual graph: n=30 ") {
		t.Fatalf("no header: %q", text)
	}
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if len(line) == 17 && strings.Trim(line, ".0123456789*") == "" {
			rows++
		}
	}
	if rows != 13 {
		t.Errorf("%d map rows of 17 cells, want 13 for an 8×6 area:\n%s", rows, text)
	}
	if strings.Contains(text, "activity timeline") {
		t.Error("a run without -phases printed a timeline")
	}
}

// TestTimelineRow pins that -phases 1 runs LBAlg and renders one row.
func TestTimelineRow(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 30, 8, 6, 1.5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\nphase "); n != 1 {
		t.Errorf("%d timeline rows, want 1:\n%s", n, out.String())
	}
}

// TestHostileFlagsRejected pins the two limits: an area whose map exceeds
// maxCells and a -phases whose rounds exceed core.MaxRounds are errors
// before anything is built or printed.
func TestHostileFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		w, h   float64
		phases int
		want   string
	}{
		{"-n 1 -w 100000 -h 100000", 1, 1e5, 1e5, 0, "cells"},
		{"-w NaN", 30, math.NaN(), 6, 0, "cells"},
		{"-phases beyond int32 rounds", 30, 8, 6, core.MaxRounds, "-phases"},
		{"-phases -1", 30, 8, 6, -1, "-phases"},
	} {
		var out bytes.Buffer
		err := run(&out, c.n, c.w, c.h, 1.5, 1, c.phases)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting", c.name, out.String())
		}
	}
}
