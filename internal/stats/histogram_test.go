package stats

import (
	"testing"

	"lbcast/internal/xrand"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(16)
	if h.n != 0 {
		t.Errorf("empty histogram holds %d observations", h.n)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %d, want 0", got)
	}
}

func TestHistogramCapValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0) did not panic")
		}
	}()
	NewHistogram(0)
}

// TestHistogramQuantileMatchesSorted cross-checks the streaming nearest-rank
// quantile against the definition computed on the retained sample: the
// smallest value with at least ⌈q·n⌉ observations at or below it.
func TestHistogramQuantileMatchesSorted(t *testing.T) {
	rng := xrand.New(99)
	h := NewHistogram(200)
	counts := make([]int, 200)
	n := 0
	for i := 0; i < 5000; i++ {
		v := rng.Intn(180)
		h.Add(v)
		counts[v]++
		n++
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := int(q*float64(n) + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		want, cum := 0, 0
		for v, c := range counts {
			cum += c
			if cum >= rank {
				want = v
				break
			}
		}
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram(10)
	h.Add(-5) // clamps to 0
	h.Add(9)  // last real bin
	h.Add(10) // overflow
	h.Add(1_000_000)
	if got := h.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %d, want overflow value 10", got)
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("Quantile(0.25) = %d, want clamped 0", got)
	}
	cs := h.Counts()
	if len(cs) != 11 || cs[0] != 1 || cs[9] != 1 || cs[10] != 2 {
		t.Errorf("Counts wrong: %v", cs)
	}
}
