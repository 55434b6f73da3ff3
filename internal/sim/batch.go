package sim

import "lbcast/internal/xrand"

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

// RxSlot is one node's reception state in the current round, written by the
// scatter (or the reception-model translation) and read at delivery. 0
// means no transmission reached the node, Heard(v) that transmitter v
// reached it alone, and RxCollision that two or more reached it (a
// dual-graph collision) or that a reception model blocked it. One int32 per
// node keeps the scatter's random writes inside a 4-byte column. The engine
// resets every reached slot after the round's statistics, so every slot is
// 0 between rounds.
type RxSlot int32

// RxCollision is the slot of a node that two or more transmissions reached,
// or whose reception a model blocked.
const RxCollision RxSlot = -1

// Heard returns the slot of a node that transmitter v reached alone.
func Heard(v int32) RxSlot { return RxSlot(v + 1) }

// From returns the transmitter that reached the node alone; ok is false for
// an empty or collided slot.
func (s RxSlot) From() (v int, ok bool) { return int(s) - 1, s > 0 }

// RoundView is the engine state a ProcessBank reads and writes during one
// round. All slices are indexed by node and owned by the engine; banks must
// only touch the index range a TransmitRange/ReceiveRange call names.
type RoundView struct {
	// Payloads and Transmit receive the transmit-phase decisions. Transmit
	// is all zero when TransmitRange starts: a bank sets Transmit[u] to 1
	// exactly where Process.Transmit would have returned true through
	// procBank.TransmitRange, writes Payloads[u] there, and writes nothing
	// else. The engine lists the transmitters from the column, and after
	// the round's statistics it zeroes their Transmit and Payloads entries,
	// so no payload outlives its round.
	Payloads []any
	Transmit []uint8
	// Rx holds the round's reception slots, valid during ReceiveRange: a
	// nonzero slot marks a node this round's scatter or reception model
	// reached, transmitters and down nodes included. A node hears
	// transmitter v iff its slot is Heard(v) and it is not itself
	// transmitting; every other combination is ⊥. Rx is all zero during
	// TransmitRange.
	Rx []RxSlot
	// Reached holds one bit per node, bit u&63 of word u>>6, set exactly
	// where Rx[u] is nonzero, so a range call finds the reached nodes of
	// its range by reading n/8 bytes instead of the 4n of the slots. The
	// engine sets it before the receive phase and clears it with the
	// slots, so it is all zero during TransmitRange.
	Reached []uint64
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
// alongside the per-node Procs handles (which remain the Init path, unless
// the bank implements BankInit, and the oracle for equivalence tests).
// The engine calls each phase of every round from round 1 on, in order.
// Range calls for the same phase never overlap and jointly cover [0, n);
// under the worker-pool driver they run concurrently on disjoint ranges, so
// a bank's per-node state must be independent across nodes exactly as
// Process implementations must confine their state, and no two range calls
// may write the same memory. A bank may skip any node whose per-node call
// would provably change nothing, as long as the nodes it does run see
// their calls in ascending node order (so recorded events and protocol
// callbacks keep the per-node path's order).
type ProcessBank interface {
	// TransmitRange fixes round t's broadcast decisions for nodes [lo, hi),
	// whose v.Transmit entries are all zero on entry: v.Transmit[u] = 1 and
	// v.Payloads[u] for each node u whose Process.Transmit(t) would have
	// returned true (never a down node), and no other write.
	TransmitRange(t, lo, hi int, v *RoundView)
	// ReceiveRange delivers round t's reception outcomes to nodes [lo, hi),
	// resolving each node's outcome from v.Rx exactly as
	// procBank.ReceiveRange would have, and skipping down nodes.
	ReceiveRange(t, lo, hi int, v *RoundView)
}

// BankInit is implemented by a ProcessBank that initialises its own rows.
// New then calls InitRow for every node in ascending order instead of each
// Procs handle's Init, and Config.Procs may be nil. The engine derives the
// streams from one xrand.New(Config.Seed), so InitRow gets exactly the
// stream xrand.NodeSource(Config.Seed, u) would return, by value, and no
// NodeEnv, Source or recorder is built per node for a bank that records
// nothing.
type BankInit interface {
	// RecordsEvents reports whether the bank records protocol events. Only
	// then does the engine keep a recorder per node for InitRow.
	RecordsEvents() bool
	// InitRow initialises node u with its private stream and its event
	// recorder, which is nil when RecordsEvents is false.
	InitRow(u int, rng xrand.Source, rec Recorder)
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

// ReceiveRange delivers the outcomes of nodes [lo, hi): a reached listener
// whose slot holds one transmitter hears that transmitter's payload;
// everyone else — transmitters, silent listeners, collision victims — gets
// ⊥. A down node's process does not run, not even for ⊥, and a sleeping
// one runs only when reached.
func (b *procBank) ReceiveRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		s := v.Rx[u]
		switch {
		case v.Down != nil && v.Down[u]:
		case s == 0:
			if !b.asleep[u] {
				b.procs[u].Receive(t, NoTransmitter, nil, false)
			}
		case v.Transmit[u] == 0 && s > 0:
			from, _ := s.From()
			b.procs[u].Receive(t, from, v.Payloads[from], true)
		default:
			b.procs[u].Receive(t, NoTransmitter, nil, false)
		}
	}
}
