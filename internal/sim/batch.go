package sim

// This file is the engine's batch execution surface: a process bank steps
// contiguous node ranges through the round phases instead of taking one
// interface call per node. Struct-of-arrays protocol implementations
// (core.NodeStateBank, the sweep workload) sweep their columns linearly per
// range, which is where the n = 10⁵–10⁶ rounds/sec headroom lives — the
// per-node Process path pays two interface dispatches plus a cache miss per
// node per round before any protocol work happens.
//
// Per-node processes take the same path: without Config.Bank the engine
// wraps Procs in a procBank, whose range calls step each node's Process in
// turn. Semantics are pinned to it: a bank must produce exactly the
// decisions and receptions that a procBank over its per-node handles would
// have. The engine's driver-equivalence tests and core's lockstep oracle
// test enforce this bit-for-bit.

// RxSlot is one node's reception state for the current round, written by the
// scatter (or the reception-model translation) and read at delivery. The
// three fields used to live in separate parallel arrays; interleaving them
// puts a delivery decision's loads on one cache line per node. Stamp makes
// the slots self-clearing: a slot whose Stamp is not the current round holds
// no receptions.
type RxSlot struct {
	// Stamp is the round that last wrote this slot.
	Stamp int32
	// Count is the number of transmitting topology neighbors heard.
	Count int32
	// From is the transmitter delivered when Count == 1.
	From int32
}

// RoundView is the engine state a ProcessBank reads and writes during one
// round. All slices are indexed by node and owned by the engine; banks must
// only touch the index range a TransmitRange/ReceiveRange call names.
type RoundView struct {
	// Payloads and Transmit receive the transmit-phase decisions:
	// TransmitRange must set Transmit for every node in its range exactly as
	// Process.Transmit would have through procBank.TransmitRange, and
	// Payloads[u] wherever it sets Transmit[u]. Payloads[u] only has meaning
	// where Transmit[u] is set: the engine reads no other payload, so a bank
	// may leave stale entries elsewhere.
	Payloads []any
	Transmit []bool
	// Touched marks, with 1, the nodes this round's scatter or reception
	// model reached — exactly the nodes whose Rx slot holds this round's
	// reception state; every other entry is 0. The engine sets it before the
	// receive phase and clears it after the round's statistics, so it is
	// all-zero during TransmitRange.
	Touched []uint8
	// Rx holds the resolved reception state, valid during ReceiveRange and
	// only where Touched is set. A node hears transmitter Rx[u].From iff it
	// is touched, it is not itself transmitting, and Rx[u].Count == 1; every
	// other combination is ⊥, so a bank never needs a silent listener's
	// slot. (Rx[u].Stamp equals the current round exactly where Touched[u]
	// is set.)
	Rx []RxSlot
	// Down is the engine's crashed-node mask; nil when no node has ever been
	// down. A down node's process must not run: TransmitRange leaves
	// Transmit false for it without consulting protocol state, ReceiveRange
	// skips it entirely — mirroring procBank.
	Down []bool
}

// RoundFlusher is the optional bulk-recording hook of a ProcessBank: a bank
// that also implements it has FlushRound(t, trace) called once per round,
// after the round's receive phase and delivery stats but before the
// per-node recorder buffers drain. A bank that accumulates events in its
// own columns (instead of going through each node's Recorder) records them
// here with Trace.Record, skipping the per-event recorder round-trip of the
// receive phase. The flush must emit events in ascending node order so
// traces stay byte-identical to the recorder path it replaces.
type RoundFlusher interface {
	FlushRound(t int, tr *Trace)
}

// ProcessBank executes node ranges in batch. Config.Bank supplies one
// alongside the per-node Procs handles (which remain the Init path and the
// oracle for equivalence tests).
// Range calls for the same phase never overlap and jointly cover [0, n);
// under the worker-pool driver they run concurrently on disjoint ranges, so
// a bank's per-node state must be independent across nodes exactly as
// Process implementations must confine their state. A bank may skip any
// node whose per-node call would provably change nothing, as long as the
// nodes it does run see their calls in ascending node order (so recorded
// events and protocol callbacks keep the per-node path's order).
type ProcessBank interface {
	// TransmitRange fixes round t's broadcast decisions for nodes [lo, hi):
	// for each node u, v.Transmit[u] exactly as Process.Transmit(t) would
	// have returned it (false for down nodes), and v.Payloads[u] wherever
	// v.Transmit[u] is set.
	TransmitRange(t, lo, hi int, v *RoundView)
	// ReceiveRange delivers round t's reception outcomes to nodes [lo, hi),
	// resolving each node's outcome from v (see RoundView.Touched and
	// RoundView.Rx) exactly as procBank.ReceiveRange would have, and
	// skipping down nodes.
	ReceiveRange(t, lo, hi int, v *RoundView)
}

// procBank is the ProcessBank the engine builds over Config.Procs when
// Config.Bank is nil: each range call steps its nodes' processes one by
// one. It shares the engine's procs backing array, so ReplaceProc's writes
// reach it.
type procBank []Process

// TransmitRange fixes the decisions of nodes [lo, hi): a down node
// transmits nothing and its process is not consulted.
func (b procBank) TransmitRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		if v.Down != nil && v.Down[u] {
			v.Payloads[u], v.Transmit[u] = nil, false
			continue
		}
		v.Payloads[u], v.Transmit[u] = b[u].Transmit(t)
	}
}

// ReceiveRange delivers the outcomes of nodes [lo, hi): a touched listener
// with exactly one transmitting topology neighbor hears that transmitter's
// payload; everyone else — transmitters, silent listeners, collision
// victims — gets ⊥. A down node's process does not run, not even for ⊥.
func (b procBank) ReceiveRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		switch s := v.Rx[u]; {
		case v.Down != nil && v.Down[u]:
		case v.Touched[u] != 0 && !v.Transmit[u] && s.Count == 1:
			b[u].Receive(t, int(s.From), v.Payloads[s.From], true)
		default:
			b[u].Receive(t, NoTransmitter, nil, false)
		}
	}
}
