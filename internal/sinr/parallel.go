// This file makes Model a sim.ShardedReceptionModel: per-listener
// resolution touches only round-immutable state (the placement and the
// powers), so the engine's worker pool can partition the listener range
// freely. Outcomes are computed listener by listener with no cross-listener
// state, so any partition produces bit-identical results to the sequential
// pass; parallel_test.go pins full-trace identity against the sequential
// driver at worker counts {1, 2, 7, GOMAXPROCS} under -race.

package sinr

import "lbcast/internal/sim"

// PrepareRound implements sim.ShardedReceptionModel. Resolution keeps no
// per-round state, so there is nothing to build, and it always opts in to
// sharding.
func (m *Model) PrepareRound(t int, txs []int32) bool { return true }

// ResolveRange implements sim.ShardedReceptionModel: listeners [lo, hi) are
// resolved exactly as Resolve resolves them. Concurrent calls on disjoint
// ranges are safe; each touches only out[lo:hi].
func (m *Model) ResolveRange(t int, txs []int32, out []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		out[u] = m.resolveOne(u, txs)
	}
}

var _ sim.ShardedReceptionModel = (*Model)(nil)
