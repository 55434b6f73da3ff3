package core

import (
	"testing"

	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// benchCluster builds a protocol-only single-hop cluster of LBAlg nodes:
// no engine, no topology, no trace store. Rounds are resolved by the
// degenerate single-hop rule (exactly one transmitter delivers to everyone
// else), which is all the protocol needs to run seed agreement and body
// rounds realistically. This isolates LBAlg.Transmit/Receive — the
// protocol-side hot path the n=1000 profiles show on top — from the engine
// round kernel the BenchmarkNetworkRound* family already covers.
func benchCluster(b *testing.B, n, senders int) []*LBAlg {
	b.Helper()
	p, err := DeriveParams(n, n, 1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]*LBAlg, n)
	plan := NewPhasePlan(p)
	for u := range procs {
		procs[u] = NewLBAlgWithPlan(plan)
		procs[u].Init(&sim.NodeEnv{ID: u, Delta: n, DeltaPrime: n, R: 1,
			Rng: xrand.NodeSource(1, u), Rec: nopRec{}})
	}
	for u := 0; u < senders; u++ {
		if _, err := procs[u].Bcast(u); err != nil {
			b.Fatal(err)
		}
	}
	return procs
}

// runProtocolRound drives one synchronous round over the cluster without an
// engine: collect transmissions, apply the single-hop collision rule, and
// deliver the outcome to every other node.
func runProtocolRound(procs []*LBAlg, t int) {
	var payload any
	from, txs := -1, 0
	for u, l := range procs {
		if msg, tx := l.Transmit(t); tx {
			txs++
			from, payload = u, msg
		}
	}
	if txs == 1 {
		for u, l := range procs {
			if u != from {
				l.Receive(t, from, payload, true)
			} else {
				l.Receive(t, -1, nil, false)
			}
		}
		return
	}
	for _, l := range procs {
		l.Receive(t, -1, nil, false)
	}
}

// BenchmarkLBAlgRound measures the protocol-only cost of one LBAlg round
// per node (preamble and body rounds in their schedule proportions) on a
// 32-node cluster with two active broadcasts — the few-senders,
// many-listeners regime the n=1000 end-to-end profiles show. ns/op is per
// node-round.
func BenchmarkLBAlgRound(b *testing.B) {
	const n = 32
	procs := benchCluster(b, n, 2)
	// Re-arm a broadcast whenever one acks so the sending path stays hot.
	for u := 0; u < 2; u++ {
		l := procs[u]
		id := u
		l.OnAck = func(Message) { _, _ = l.Bcast(id) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	t := 0
	for i := 0; i < b.N; i += n {
		t++
		runProtocolRound(procs, t)
	}
}
