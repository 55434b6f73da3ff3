package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.n != 0 || s.Mean() != 0 {
		t.Error("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Errorf("n = %d", s.n)
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("extrema = %v, %v", s.Min(), s.Max())
	}
}

func TestSummaryAddInt(t *testing.T) {
	var s Summary
	s.AddInt(3)
	s.AddInt(5)
	if s.Mean() != 4 {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		var sum float64
		ok := true
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				continue
			}
			s.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return s.n == 0
		}
		mean := sum / float64(n)
		if math.Abs(s.Mean()-mean) > 1e-6*(1+math.Abs(mean)) {
			ok = false
		}
		return ok && s.n == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	tests := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.5, 7},
		{"median even", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
		{"q below zero clamps", []float64{3, 1, 2}, -0.5, 1},
		{"p90", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Quantile(tt.samples, tt.q); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("Quantile(%v, %v) = %v, want %v", tt.samples, tt.q, got, tt.want)
			}
		})
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	samples := []float64{3, 1, 2}
	Quantile(samples, 0.5)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestQuantileInts(t *testing.T) {
	if got := QuantileInts([]int{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("QuantileInts = %v", got)
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty CI = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonCI(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("CI [%v,%v] does not contain p̂", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%v,%v] too wide for n=100", lo, hi)
	}
	// Perfect successes: interval must stay within [0,1] and keep hi = 1 off
	// by the continuity of Wilson (hi < 1 is fine; lo must be high).
	lo, hi = WilsonCI(100, 100, 1.96)
	if lo < 0.9 || hi > 1 {
		t.Errorf("CI for 100/100 = [%v,%v]", lo, hi)
	}
	// Wider n gives narrower intervals.
	lo1, hi1 := WilsonCI(5, 10, 1.96)
	lo2, hi2 := WilsonCI(500, 1000, 1.96)
	if (hi2 - lo2) >= (hi1 - lo1) {
		t.Error("CI did not narrow with n")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 3x² exactly → slope 2.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if got := LogLogSlope(xs, ys); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", got)
	}
	// Constant y → slope 0.
	if got := LogLogSlope(xs, []float64{5, 5, 5, 5, 5}); math.Abs(got) > 1e-9 {
		t.Errorf("constant slope = %v", got)
	}
	// Degenerate inputs → NaN.
	if got := LogLogSlope([]float64{1}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("single point slope = %v, want NaN", got)
	}
	if got := LogLogSlope([]float64{-1, -2}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("negative xs slope = %v, want NaN", got)
	}
	if got := LogLogSlope([]float64{2, 2, 2}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("equal xs slope = %v, want NaN", got)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"footnote"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", 3.0)
	out := tbl.String()
	for _, want := range []string{"## demo", "a", "bb", "2.500", "x", "note: footnote"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{1, "1"},
		{1.5, "1.500"},
		{123.456, "123.5"},
		{math.NaN(), "NaN"},
		{0, "0"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.v); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestFormatRate(t *testing.T) {
	if got := FormatRate(3, 4); got != "3/4 (0.750)" {
		t.Errorf("FormatRate = %q", got)
	}
	if got := FormatRate(0, 0); got != "0/0 (–)" {
		t.Errorf("FormatRate empty = %q", got)
	}
}
