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
// turn, except where a process sleeps (NodeEnv.Sleep): like a bank's sparse
// rounds, an idle node then costs a flag test. Semantics are pinned to it:
// a bank must produce exactly the decisions and receptions that a procBank
// over its per-node handles would have. The engine's driver-equivalence
// tests and core's lockstep oracle test enforce this bit-for-bit.

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
	// Payloads and Transmit receive the transmit-phase decisions. Like
	// Touched, Transmit is all zero when TransmitRange starts: a bank sets
	// Transmit[u] to 1 exactly where Process.Transmit would have returned
	// true through procBank.TransmitRange, writes Payloads[u] there, and
	// writes nothing else. The engine lists the transmitters from the
	// column, and after the round's statistics it zeroes their Transmit and
	// Payloads entries, so no payload outlives its round.
	Payloads []any
	Transmit []uint8
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
	// Transmit 0 for it without consulting protocol state, ReceiveRange
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
	// TransmitRange fixes round t's broadcast decisions for nodes [lo, hi),
	// whose v.Transmit entries are all zero on entry: v.Transmit[u] = 1 and
	// v.Payloads[u] for each node u whose Process.Transmit(t) would have
	// returned true (never a down node), and no other write.
	TransmitRange(t, lo, hi int, v *RoundView)
	// ReceiveRange delivers round t's reception outcomes to nodes [lo, hi),
	// resolving each node's outcome from v (see RoundView.Touched and
	// RoundView.Rx) exactly as procBank.ReceiveRange would have, and
	// skipping down nodes.
	ReceiveRange(t, lo, hi int, v *RoundView)
}

// procBank is the ProcessBank the engine builds over Config.Procs when
// Config.Bank is nil: each range call steps its nodes' processes one by
// one, skipping the calls a sleeping process has declared no-ops (see
// NodeEnv.Sleep). procs shares the engine's backing array, so ReplaceProc's
// writes reach it.
type procBank struct {
	procs []Process
	// asleep[u] is node u's sleep flag, written through its NodeEnv.
	asleep []bool
}

// TransmitRange fixes the decisions of nodes [lo, hi), writing only
// transmitters: a down or sleeping node transmits nothing and its process
// is not consulted.
func (b *procBank) TransmitRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		if b.asleep[u] || v.Down != nil && v.Down[u] {
			continue
		}
		if payload, tx := b.procs[u].Transmit(t); tx {
			v.Payloads[u], v.Transmit[u] = payload, 1
		}
	}
}

// ReceiveRange delivers the outcomes of nodes [lo, hi): a touched listener
// with exactly one transmitting topology neighbor hears that transmitter's
// payload; everyone else — transmitters, silent listeners, collision
// victims — gets ⊥. A down node's process does not run, not even for ⊥,
// and a sleeping one runs only when touched.
func (b *procBank) ReceiveRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		switch {
		case v.Down != nil && v.Down[u]:
		case v.Touched[u] == 0:
			if !b.asleep[u] {
				b.procs[u].Receive(t, NoTransmitter, nil, false)
			}
		case v.Transmit[u] == 0 && v.Rx[u].Count == 1:
			from := v.Rx[u].From
			b.procs[u].Receive(t, int(from), v.Payloads[from], true)
		default:
			b.procs[u].Receive(t, NoTransmitter, nil, false)
		}
	}
}
