package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// Summary accumulates a stream of observations: a running mean and the
// extrema. The zero value is an empty summary ready for use.
type Summary struct {
	n          int
	mean       float64
	min, max   float64
	hasExtrema bool
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
	if !s.hasExtrema || x < s.min {
		s.min = x
	}
	if !s.hasExtrema || x > s.max {
		s.max = x
	}
	s.hasExtrema = true
}

// AddInt incorporates one integer observation.
func (s *Summary) AddInt(x int) { s.Add(float64(x)) }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min and Max return the extrema (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the maximum observation.
func (s *Summary) Max() float64 { return s.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples using linear
// interpolation between order statistics. It returns 0 for no samples.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// QuantileInts is Quantile over integer samples.
func QuantileInts(samples []int, q float64) float64 {
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
	}
	return Quantile(fs, q)
}

// WilsonCI returns the Wilson score interval for a binomial proportion at
// the given z (1.96 ≈ 95%). For n = 0 it returns (0, 1).
func WilsonCI(successes, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	centre := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = centre-half, centre+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// LogLogSlope fits log(y) = a + b·log(x) by least squares and returns b,
// the empirical scaling exponent. Points with non-positive coordinates are
// skipped; fewer than two usable points yield NaN.
func LogLogSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	denom := n*sxx - sx*sx
	if math.Abs(denom) < 1e-9 {
		return math.NaN() // all x equal: slope undefined
	}
	return (n*sxy - sx*sy) / denom
}

// Table is a titled text table with optional footnotes, the output unit of
// every experiment.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "## %s\n\n", t.Title); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Columns) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
		under := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			under[i] = strings.Repeat("-", len(c))
		}
		fmt.Fprintln(tw, strings.Join(under, "\t"))
	}
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with three significant decimals.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FormatRate renders a success ratio as "succ/total (rate)".
func FormatRate(successes, total int) string {
	if total == 0 {
		return "0/0 (–)"
	}
	return fmt.Sprintf("%d/%d (%.3f)", successes, total, float64(successes)/float64(total))
}
