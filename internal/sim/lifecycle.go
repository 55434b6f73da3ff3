// This file is the engine's node-lifecycle surface, the hooks the churn
// layer (internal/churn) drives: SetDown silences a node at the physical
// layer, ReplaceProc restarts its protocol state, and RefreshTopology
// re-syncs the engine's flattened views after the dual graph was patched.
// All three must be called between rounds (they touch round-shared state);
// the churn injector calls them from Environment.BeforeRound, which the
// engine guarantees runs before any node acts in the round.
//
// The down state is deliberately invisible until used: a nil down slice
// costs one branch per node per round and changes no behavior, so traces of
// churn-free executions stay byte-identical to pre-lifecycle engines
// (core's golden fingerprint test pins this).

package sim

import "lbcast/internal/xrand"

// parallelResolveMinListeners is the node count below which sharding a
// reception model's per-listener resolution across the worker pool cannot
// beat the dispatch overhead. Resolution costs at least one ring scan per
// listener (far more than the scatter's per-edge bump), so the threshold is
// a node count rather than the scatter's transmitter count.
const parallelResolveMinListeners = 256

// ShardedReceptionModel is a ReceptionModel whose per-listener resolution
// can run concurrently. The engine (worker-pool driver) calls PrepareRound
// once, then partitions the listener range across workers with ResolveRange;
// each call must write exactly out[lo:hi] and read only state that is
// immutable for the round after PrepareRound. Outcomes must equal what
// Resolve would have produced, listener by listener, regardless of the
// partition — the engine's trace-equivalence tests pin bit-identity across
// worker counts.
type ShardedReceptionModel interface {
	ReceptionModel
	// PrepareRound builds the round's shared read-only state and reports
	// whether sharded resolution is worthwhile for this round; false falls
	// back to the sequential Resolve.
	PrepareRound(t int, txs []int32) bool
	// ResolveRange resolves listeners [lo, hi), writing out[lo:hi].
	ResolveRange(t int, txs []int32, out []int32, lo, hi int)
}

// resolveSharded partitions the reception model's listener resolution across
// the persistent worker pool. Each worker writes a disjoint range of
// recvOut, so no merge is needed; determinism follows from ResolveRange's
// partition-independence contract.
func (e *Engine) resolveSharded() {
	n := e.n
	workers := min(e.wrk, n)
	e.resolveChunk = (n + workers - 1) / workers
	active := (n + e.resolveChunk - 1) / e.resolveChunk
	e.ensurePool()
	e.pool.run(active, e.poolResolveFn)
}

// SetDown crashes (down = true) or revives (down = false) node u's radio,
// effective from the next round: a down node neither transmits nor receives,
// its process is never invoked, and it contributes no trace events or
// delivery/collision statistics. Reviving restores the radio only — the
// process resumes with whatever state it crashed with; callers modelling a
// real restart pair SetDown(u, false) with ReplaceProc.
func (e *Engine) SetDown(u int, down bool) {
	if e.down == nil {
		if !down {
			return
		}
		e.down = make([]bool, e.n)
	}
	e.down[u] = down
	if down {
		// Clear any already-fixed decision so a crash between phases cannot
		// leave a phantom transmission behind.
		e.payloads[u], e.transmit[u] = nil, 0
	}
}

// ReplaceProc installs a fresh process at node u and initialises it exactly
// as New initialised the original — same Δ/Δ′/r parameters, same recorder —
// but with an incarnation-salted randomness stream, so a restarted node does
// not replay its predecessor's coin flips. The previous process is
// abandoned mid-state, which is precisely what a crash means; its sleep
// flag goes with it, so the new process starts awake until its Init says
// otherwise.
func (e *Engine) ReplaceProc(u int, p Process) {
	pb, ok := e.bank.(*procBank)
	if !ok {
		// A Config.Bank owns every node's protocol state in shared columns;
		// swapping one node's Process handle cannot reset that state, so the
		// engine refuses rather than silently diverge. Churn executions use
		// per-node processes, whose procBank reads e.procs.
		panic("sim: ReplaceProc is not supported with Config.Bank")
	}
	if e.incarn == nil {
		e.incarn = make([]uint32, e.n)
	}
	e.incarn[u]++
	e.procs[u] = p
	e.payloads[u], e.transmit[u] = nil, 0
	pb.asleep[u] = false
	p.Init(&NodeEnv{
		ID:         u,
		Delta:      e.delta,
		DeltaPrime: e.deltaP,
		R:          e.dual.R,
		Rng:        xrand.NodeSource(e.seed+uint64(e.incarn[u])*0x9e3779b97f4a7c15, u),
		Rec:        &e.recs[u],
		asleep:     &pb.asleep[u],
	})
	// Init may record events (none of the current protocols do, but the
	// recorder is live); fold them into the trace at the current round.
	e.drainRecorders(e.round)
}

// RefreshTopology re-reads the dual graph's flattened adjacency after a
// PatchNode and resizes every structure whose shape depends on it: the
// unreliable-edge inclusion mask, the IncludedFor scratch buffers (the
// patched graph may have a larger max unreliable degree), and the Δ/Δ′
// bounds handed to processes restarted from now on. Must be called after
// every patch before the next round runs — PatchNode rewrites the CSR
// backing arrays in place, so the engine's stale slice headers would
// otherwise read torn topology.
func (e *Engine) RefreshTopology() {
	e.gCSR = e.dual.ReliableCSR()
	e.uCSR = e.dual.UnreliableCSR()
	e.delta, e.deltaP = e.dual.Delta(), e.dual.DeltaPrime()
	e.maxUDeg = 0
	for u := range e.n {
		if d := int(e.uCSR.Off[u+1] - e.uCSR.Off[u]); d > e.maxUDeg {
			e.maxUDeg = d
		}
	}
	if e.sparse != nil && len(e.incBuf) < e.maxUDeg {
		e.incBuf = make([]bool, e.maxUDeg)
	}
	if e.included != nil && len(e.included) != len(e.dual.UnreliableEdges()) {
		e.included = make([]bool, len(e.dual.UnreliableEdges()))
	}
	for _, sh := range e.shards {
		if len(sh.incBuf) < e.maxUDeg {
			sh.incBuf = make([]bool, e.maxUDeg)
		}
	}
}
