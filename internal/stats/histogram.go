package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin streaming histogram for non-negative integer
// observations (latencies in rounds, queue depths). Bins have width 1:
// bin i counts observations of value exactly i, and values at or above the
// configured cap land in the final overflow bin. Memory is fixed at
// construction and Add is O(1), so a histogram can ride along a multi-
// million-round run and still answer exact quantiles afterwards — unlike
// Quantile, which needs every sample retained.
//
// Quantiles are nearest-rank: Quantile(q) is the smallest recorded value v
// such that at least ⌈q·n⌉ observations are ≤ v. This makes the answer a
// deterministic integer function of the recorded counts, which is what the
// workload soak fingerprints pin across drivers.
type Histogram struct {
	bins  []uint64
	n     uint64
	clamp int // values ≥ clamp land in bins[clamp]
}

// NewHistogram returns a histogram with unit bins for values in [0, cap);
// values ≥ cap are clamped into one overflow bin (reported as cap). cap
// must be positive.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram cap %d must be positive", cap))
	}
	return &Histogram{bins: make([]uint64, cap+1), clamp: cap}
}

// Add incorporates one observation. Negative values clamp to 0.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= h.clamp {
		v = h.clamp
	}
	h.bins[v]++
	h.n++
}

// Quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of the recorded
// observations, 0 when empty. The result is always one of the recorded
// (clamped) values.
func (h *Histogram) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for v, c := range h.bins {
		cum += c
		if cum >= rank {
			return v
		}
	}
	return h.clamp
}

// Counts returns the raw bin counts (aliasing the histogram's storage; do
// not mutate). Index i counts value i, the last index the overflow bin.
// Fingerprint tests hash this to pin metric bit-identity across drivers.
func (h *Histogram) Counts() []uint64 { return h.bins }
