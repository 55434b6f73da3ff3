package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// This file is the struct-of-arrays representation of LBAlg: one
// NodeStateBank owns the whole network's protocol state in flat per-field
// columns and steps contiguous node ranges per round through the engine's
// batch path (sim.ProcessBank). The per-node LBAlg remains the reference
// implementation — every method here ports the corresponding lbalg.go
// method field by field, except that sender-only state is held differently
// (below) — and nodestatebank_test.go runs the two in lockstep over lossy
// executions comparing every transmit decision, payload, recv, ack and
// private coin draw.
//
// Why columns: at n = 10⁵⁻⁶ the per-node structs are ~200 B apart on the
// heap, so a round's Transmit sweep takes one or two cache misses per node
// before any protocol work happens, plus two interface dispatches. The bank
// packs the per-round hot fields (flags, sending phases left, coin debt)
// into parallel arrays and leaves the cold state (seed machine rows,
// committed seed and its cursor, coin buffers, dedupe tables) in separate
// columns touched only at phase boundaries, on delivery, or by senders.
//
// Why no per-node heap objects: a node's seed machine is a row of value
// columns — its seedagree.Machine (status and leader phase), the
// seedagree.Msg it advertises as a leader, and its private coin stream,
// copied from the engine's at Init — stepped by the same seedagree.Machine
// methods the per-node seedagree.Alg runs, and reset in place at every
// preamble. A leader's frame is a pointer into the Msg column, which an
// interface holds without allocating. The bank's recv and ack callbacks
// take the node index, so a network registers two closures, not 2n; Init
// keeps a node's event recorder only while events are recorded. A built
// bank therefore holds its columns and nothing per node.
//
// Why sender-only state exists only for senders: most nodes only listen,
// and listeners never read coins or committed-seed bits. So a node holds a
// coin buffer from its first decode until its ack, and a set of the sources
// it has heard from its first delivery. A commitment is a 40-byte
// xrand.Seed value plus a per-node bit cursor, as in LBAlg; a seed's words
// are regenerated only where a sender decodes.
//
// Why sparse rounds: every node of a bank runs on the same global round, so
// one (phase, pos, pre) cursor computed from t replaces per-node position
// memos, and in most rounds most nodes have nothing to do — the paper's
// service is "truly local". Work bits in the flags byte (seed machine
// active, seed leader, body sender), the visit list and the engine's
// Reached bits (RoundView.Reached: the nodes a transmission reached) tell a
// range call which nodes its round can change, and it visits only those,
// in ascending node order. Every skipped call is a provable no-op of the
// per-node body:
//
//   - transmit at pos == 0 and receive at pos == pre−1 are dense: every
//     node begins the phase (beginPhase) and commits its seed (commitSeed);
//   - preamble transmit visits every live (active or leader) seed machine
//     at seed sub-phase starts (the election draw, and a leader of the last
//     sub-phase retires), found by testing eight flag bytes per load, and
//     the sub-phase's leaders on its other rounds (a leader draws its
//     advertising coin); on all other rounds seedagree.Machine.Transmit
//     changes nothing;
//   - body transmit visits body senders only (coins valid, sending,
//     pending); anyone else transmits nothing;
//   - preamble receive visits reached nodes whose seed machine is active:
//     seedagree.Machine.Receive changes nothing for a leader or an inactive
//     machine, and Finalize runs in commitSeed, which only the dense last
//     preamble round reaches;
//   - body receive visits reached nodes — only they can hear anything —
//     plus, at the last body round, sending nodes, which spend one of their
//     Tack phases there.
//
// The leaders and body senders come off the visit list, which the passes
// that can make a node one build: a leader is elected only at a seed
// sub-phase start (pos == 0 included) and leads until the next, and
// bankBodySender is set only by the dense passes (beginPhase, commitSeed),
// while an ack, a new Bcast or a reseed only clears it. So the list a
// building pass leaves holds every node that can be a leader, or a body
// sender, until the next building pass, and a visit skips, as the per-node
// body does, one that has stopped being one.

// flag bits of NodeStateBank.flags. Three are LBAlg's booleans; the seed
// machine's status is mirrored in two bits, at most one of them set
// (neither means Inactive, LBAlg.seedIdle); bankBodySender is a work bit
// derived from the others and kept in sync at every edge, so a visit needs
// one bit test per node.
const (
	bankSeedActive     = 1 << iota // the seed machine is Active
	bankCoinsValid                 // LBAlg.coins.valid
	bankSendingStarted             // LBAlg.sendingStarted, ⇔ LBAlg.state == StateSending
	bankHasPending                 // LBAlg.pending != nil
	bankSeedLeader                 // the seed machine is a Leader
	bankBodySender                 // coins valid, sending and pending: body rounds may transmit
	bankCommitted                  // committed holds this cycle's commitment, ⇔ LBAlg.committed.Len() > 0
)

const (
	// bankSeedLive marks a seed machine that is Active or Leader, the
	// inverse of LBAlg.seedIdle.
	bankSeedLive = bankSeedActive | bankSeedLeader
	// bankSenderBits are the flags whose conjunction is bankBodySender.
	bankSenderBits = bankCoinsValid | bankSendingStarted | bankHasPending
)

// NodeStateBank holds the protocol state of n LBAlg nodes in columns. It
// implements sim.ProcessBank; its per-node handles (Node) implement Service
// for the Init/Bcast/callback surface and for per-node stepping.
// Not safe for concurrent mutation of one node from two goroutines; the
// engine's range calls are disjoint, which is exactly the contract.
type NodeStateBank struct {
	plan *PhasePlan
	p    Params
	n    int

	// Hot columns. flags is scanned eight nodes per load by the range calls;
	// phasesLeft and coinsBehind are read only for visited nodes.
	flags       []uint8
	phasesLeft  []int32
	coinsBehind []int32

	// Seed machine rows (see the file comment): seeds[u] is node u's
	// SeedAlg state, mirrored into the flags' seed bits at every change;
	// msgs[u] is its (id u, initial seed) for the current run; rngs[u] is
	// its private coin stream.
	seeds []seedagree.Machine
	msgs  []seedagree.Msg
	rngs  []xrand.Source

	// Sender-only state (see the file comment): coins[u] holds the last
	// decode, valid iff flags[u]&bankCoinsValid; committed[u] is the seed
	// node u's machine decided in its latest run, a commitment once
	// flags[u]&bankCommitted, and seedCur[u] this node's bit cursor in it.
	// The decision is copied at once, since a heard leader redraws its Msg
	// at its next preamble.
	coins     [][]uint8
	committed []xrand.Seed
	seedCur   []int32

	// visits is the visit list (see the file comment): the current seed
	// sub-phase's leaders in preamble rounds, the phase's body senders in
	// body rounds.
	visits visitList

	// Cold columns: touched at phase boundaries, deliveries, and the
	// Bcast/ack edges only. heard[u] is u's dedupe set (see deliver),
	// allocated at u's first delivery.
	pending []Message
	frame   []any
	heard   []*heardSet
	seq     []int32

	// Outputs. onRecv and onAck are the bank's callbacks, which take the
	// node; nodeRecv and nodeAck are the per-node ones BankNode's setters
	// register, allocated at the first such call. recs[u] is node u's event
	// recorder for the hear, recv, ack and bcast events, the ones LBAlg
	// records; the column exists only while SetRecordEvents is on, so that
	// a bank's memory does not grow with the rounds it runs.
	onRecv   func(u int, m Message, from int)
	onAck    func(u int, m Message)
	nodeRecv []func(Message, int)
	nodeAck  []func(Message)
	recs     []sim.Recorder

	// handles is the contiguous backing of the per-node Service handles, so
	// Node(u) hands out stable pointers without per-node allocations.
	handles []BankNode
}

var (
	_ sim.ProcessBank = (*NodeStateBank)(nil)
	_ sim.BankInit    = (*NodeStateBank)(nil)
)

// NewNodeStateBank creates the columnar state of n nodes over a shared
// phase plan, each node initialised exactly as NewLBAlgWithPlan initialises
// a fresh LBAlg.
func NewNodeStateBank(plan *PhasePlan, n int) *NodeStateBank {
	bk := &NodeStateBank{
		plan: plan, p: plan.params, n: n,
		flags:      make([]uint8, n),
		phasesLeft: make([]int32, n), coinsBehind: make([]int32, n),
		seeds: make([]seedagree.Machine, n), msgs: make([]seedagree.Msg, n), rngs: make([]xrand.Source, n),
		coins: make([][]uint8, n), committed: make([]xrand.Seed, n), seedCur: make([]int32, n),
		visits:  make(visitList, n),
		pending: make([]Message, n), frame: make([]any, n),
		heard: make([]*heardSet, n), seq: make([]int32, n),
		handles: make([]BankNode, n),
	}
	bk.visits.seal(0, n) // empty until round 1's dense pass builds it
	for u := 0; u < n; u++ {
		bk.flags[u] = bankSeedActive // Init's fresh seed machine is Active
		bk.msgs[u].Owner = u
		bk.handles[u] = BankNode{bank: bk, u: int32(u)}
	}
	return bk
}

// Len returns the number of nodes the bank holds.
func (bk *NodeStateBank) Len() int { return bk.n }

// Node returns node u's Service handle — the engine's Procs entry and the
// environment's Bcast/callback surface.
func (bk *NodeStateBank) Node(u int) *BankNode { return &bk.handles[u] }

// Procs returns the per-node handles as the engine's Procs slice.
func (bk *NodeStateBank) Procs() []sim.Process {
	procs := make([]sim.Process, bk.n)
	for u := range procs {
		procs[u] = &bk.handles[u]
	}
	return procs
}

// SetRecordEvents turns the recording of every node's hear, recv, ack and
// bcast events on or off; it is off until set. Call it before the engine
// initialises the nodes: Init keeps a node's recorder only while recording
// is on.
func (bk *NodeStateBank) SetRecordEvents(on bool) {
	if !on {
		bk.recs = nil
	} else if bk.recs == nil {
		bk.recs = make([]sim.Recorder, bk.n)
	}
}

// SetOnRecv registers the recv output callback of every node, called with
// the node, the message and the transmitter heard. A node's own callback
// (BankNode.SetOnRecv), if any, runs after it.
func (bk *NodeStateBank) SetOnRecv(fn func(u int, m Message, from int)) { bk.onRecv = fn }

// SetOnAck registers the ack output callback of every node, called with
// the node and the message. A node's own callback (BankNode.SetOnAck), if
// any, runs after it.
func (bk *NodeStateBank) SetOnAck(fn func(u int, m Message)) { bk.onAck = fn }

// cursor is round t's place in the phase schedule, shared by every node:
// the 1-based phase, the 0-based position within it, and the phase's
// preamble length (positions below pre are preamble rounds).
type cursor struct {
	t, phase, pos, pre int
}

// cursorAt resolves round t's cursor.
func (bk *NodeStateBank) cursorAt(t int) cursor {
	phase, pos := bk.plan.PhaseOf(t)
	return cursor{t: t, phase: phase, pos: pos, pre: bk.plan.preambleLen(phase)}
}

// TransmitRange implements sim.ProcessBank. It visits only the nodes whose
// work bits or the visit list say round t's transmit can do something (see
// the file comment), and writes Transmit and Payloads for transmitters
// only: the engine hands the range's Transmit column over all zero. The
// dense pass at pos == 0 and the passes at seed sub-phase starts build the
// range's part of the visit list.
func (bk *NodeStateBank) TransmitRange(t, lo, hi int, v *sim.RoundView) {
	c := bk.cursorAt(t)
	switch {
	case c.pos == 0:
		// The list keeps the first sub-phase's leaders, or the body senders
		// of a phase without a preamble.
		var want uint8 = bankBodySender
		if c.pre > 0 {
			want = bankSeedLeader
		}
		w := lo
		for u := lo; u < hi; u++ {
			bk.transmitView(u, c, v)
			if bk.flags[u]&want != 0 {
				w = bk.visits.put(w, u)
			}
		}
		bk.visits.seal(w, hi)
	case c.pos < c.pre && c.pos%bk.plan.Seed.PhaseLen() == 0:
		w := lo
		for u := nextFlagged(bk.flags, bankSeedLive, lo, hi); u < hi; u = nextFlagged(bk.flags, bankSeedLive, u+1, hi) {
			bk.transmitView(u, c, v)
			if bk.flags[u]&bankSeedLeader != 0 {
				w = bk.visits.put(w, u)
			}
		}
		bk.visits.seal(w, hi)
	default:
		vl := bk.visits
		for u, i := vl.next(vl.first(lo), hi); u < hi; u, i = vl.next(i, hi) {
			bk.transmitView(u, c, v)
		}
	}
}

// transmitView runs node u's transmit and writes a transmission into v.
// Down nodes do not run.
func (bk *NodeStateBank) transmitView(u int, c cursor, v *sim.RoundView) {
	if v.Down != nil && v.Down[u] {
		return
	}
	if payload, tx := bk.transmit(u, c); tx {
		v.Payloads[u], v.Transmit[u] = payload, 1
	}
}

// ReceiveRange implements sim.ProcessBank, resolving each visited node's
// outcome from the round view exactly as procBank.ReceiveRange does for
// per-node processes. It visits every node at the last preamble round,
// where it builds the range's part of the visit list (the phase's body
// senders), reached active seed machines at the other preamble rounds,
// and reached nodes in body rounds, plus sending nodes at the last one.
func (bk *NodeStateBank) ReceiveRange(t, lo, hi int, v *sim.RoundView) {
	c := bk.cursorAt(t)
	if c.pos == c.pre-1 {
		w := lo
		for u := lo; u < hi; u++ {
			bk.receiveView(u, c, v)
			if bk.flags[u]&bankBodySender != 0 {
				w = bk.visits.put(w, u)
			}
		}
		bk.visits.seal(w, hi)
		return
	}
	if c.pos == bk.plan.phaseLen-1 {
		// The last body round: reached nodes, and sending nodes, which
		// spend one of their Tack phases here.
		for u := lo; u < hi; u++ {
			if v.Rx[u] != 0 || bk.flags[u]&bankSendingStarted != 0 {
				bk.receiveView(u, c, v)
			}
		}
		return
	}
	var gate uint8 = bankSeedActive // body rounds: every reached node
	if c.pos < c.pre {
		gate = 0 // preamble rounds: reached active seed machines only
	}
	for u := nextReceiver(v.Reached, bk.flags, gate, lo, hi); u < hi; u = nextReceiver(v.Reached, bk.flags, gate, u+1, hi) {
		bk.receiveView(u, c, v)
	}
}

// receiveView delivers node u's outcome of the round in v. Down nodes do
// not run.
func (bk *NodeStateBank) receiveView(u int, c cursor, v *sim.RoundView) {
	if v.Down != nil && v.Down[u] {
		return
	}
	if from, ok := v.Rx[u].From(); ok && v.Transmit[u] == 0 {
		bk.receive(u, c, from, v.Payloads[from], true)
		return
	}
	bk.receive(u, c, sim.NoTransmitter, nil, false)
}

// nextFlagged returns the first node in [from, hi) whose flags share a bit
// with mask, or hi. It tests eight flag bytes per load.
func nextFlagged(flags []uint8, mask uint8, from, hi int) int {
	m := uint64(mask) * 0x0101010101010101
	u := from
	for ; u+8 <= hi; u += 8 {
		if w := binary.LittleEndian.Uint64(flags[u:]) & m; w != 0 {
			return u + bits.TrailingZeros64(w)>>3
		}
	}
	for ; u < hi; u++ {
		if flags[u]&mask != 0 {
			return u
		}
	}
	return hi
}

// nextReceiver returns the first node in [from, hi) whose Reached bit is
// set and that has bankSeedActive set in its flags or in gate, or hi: a
// gate of bankSeedActive passes every reached node, a gate of 0 only
// reached active seed machines. It skips 64 unreached nodes per word.
func nextReceiver(reached []uint64, flags []uint8, gate uint8, from, hi int) int {
	for u := from; u < hi; {
		w := reached[u>>6] >> (u & 63)
		if w == 0 {
			u = u | 63 + 1
			continue
		}
		if u += bits.TrailingZeros64(w); u >= hi {
			break
		}
		if (flags[u]|gate)&bankSeedActive != 0 {
			return u
		}
		u++
	}
	return hi
}

// visitList is an ascending list of nodes that the range calls of one pass
// build piece by piece and the range calls of later rounds read, whatever
// the two passes' ranges are. A building range call [lo, hi) writes
// entries lo … hi−1 only: its listed nodes u as 2u+1 in ascending order,
// then the filler 2·hi up to hi. So no two range calls write one entry,
// and the entries never decrease over the whole list: a reading range call
// finds its first node by binary search, and a filler, which a reader
// meets only where its range spans several building ranges, sends it to
// the next piece.
type visitList []uint32

// put writes node u as entry w of a piece being built and returns w + 1.
func (l visitList) put(w, u int) int {
	l[w] = uint32(2*u + 1)
	return w + 1
}

// seal ends the piece [lo, hi) whose listed nodes fill entries [lo, w).
func (l visitList) seal(w, hi int) {
	for f := uint32(2 * hi); w < hi; w++ {
		l[w] = f
	}
}

// first returns the index of the first entry for a node at or after lo.
func (l visitList) first(lo int) int {
	key, i, j := uint32(2*lo), 0, len(l)
	for i < j {
		if h := int(uint(i+j) >> 1); l[h] < key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// next returns the first listed node below hi at or after entry i, and the
// entry after it; u is hi when there is none.
func (l visitList) next(i, hi int) (u, j int) {
	for end := uint32(2 * hi); i < len(l) && l[i] < end; {
		if e := l[i]; e&1 == 0 {
			i = int(e >> 1) // a filler: the next piece starts at entry e/2
		} else {
			return int(e >> 1), i + 1
		}
	}
	return hi, i
}

// setFlags sets and clears node u's flag bits and re-derives its
// body-sender bit: the single write path for the bits it depends on.
func (bk *NodeStateBank) setFlags(u int, set, clr uint8) {
	f := (bk.flags[u]&^clr | set) &^ bankBodySender
	if f&bankSenderBits == bankSenderBits {
		f |= bankBodySender
	}
	bk.flags[u] = f
}

// syncSeed refreshes node u's seed-machine bits from its status.
func (bk *NodeStateBank) syncSeed(u int) {
	var set uint8
	switch bk.seeds[u].Status() {
	case seedagree.StatusActive:
		set = bankSeedActive
	case seedagree.StatusLeader:
		set = bankSeedLeader
	}
	bk.flags[u] = bk.flags[u]&^bankSeedLive | set
}

// RecordsEvents implements sim.BankInit: the bank records events once
// SetRecordEvents(true) has run.
func (bk *NodeStateBank) RecordsEvents() bool { return bk.recs != nil }

// InitRow implements sim.BankInit, and is BankNode.Init's body: LBAlg.Init
// ported to columns. The stream arrives by value, and the recorder is kept
// only while events are recorded.
func (bk *NodeStateBank) InitRow(u int, rng xrand.Source, rec sim.Recorder) {
	bk.rngs[u] = rng
	if bk.recs != nil {
		bk.recs[u] = rec
	}
	bk.seeds[u].Reset(bk.plan.Seed, &bk.msgs[u], &bk.rngs[u])
}

// transmit is LBAlg.Transmit ported to columns: node u's decision in the
// round at cursor c, with the same preamble dispatch, body-round gating and
// private coin draws.
func (bk *NodeStateBank) transmit(u int, c cursor) (any, bool) {
	if c.pos == 0 {
		bk.beginPhase(u, c.phase)
	}
	if c.pos < c.pre { // a preamble round
		if bk.flags[u]&bankSeedLive == 0 {
			return nil, false // decided, not advertising: a no-op round
		}
		elected, advertise := bk.seeds[u].Transmit(bk.plan.Seed, &bk.rngs[u], c.pos+1)
		if elected {
			bk.committed[u] = bk.msgs[u].Seed
		}
		bk.syncSeed(u)
		if advertise {
			return &bk.msgs[u], true
		}
		return nil, false
	}
	// A body round with scratch index pos − pre, exactly as LBAlg.Transmit.
	if bk.flags[u]&bankBodySender == 0 {
		return nil, false
	}
	j := c.pos - c.pre
	if j >= len(bk.coins[u]) {
		return nil, false // out-of-order jump past the decoded span; fail closed
	}
	b := bk.coins[u][j]
	if b == 0 {
		return nil, false // non-participant round for this owner group
	}
	return bk.participate(u, int(b))
}

// beginPhase is LBAlg.beginPhase over columns.
func (bk *NodeStateBank) beginPhase(u, phase int) {
	if f := bk.flags[u]; f&bankHasPending != 0 && f&bankSendingStarted == 0 {
		bk.setFlags(u, bankSendingStarted, 0)
		bk.phasesLeft[u] = int32(bk.p.Tack)
	}
	if bk.plan.RunsPreamble(phase) {
		bk.seeds[u].Reset(bk.plan.Seed, &bk.msgs[u], &bk.rngs[u])
		bk.setFlags(u, bankSeedActive, bankSeedLeader|bankCoinsValid|bankCommitted)
		bk.coinsBehind[u] = 0
	} else if bk.flags[u]&bankCommitted != 0 {
		rounds := bk.plan.BodyRounds(phase)
		if bk.flags[u]&bankSendingStarted != 0 {
			if bk.coinsBehind[u] > 0 {
				bk.plan.skipCoins(bk.committed[u], &bk.seedCur[u], int(bk.coinsBehind[u]))
				bk.coinsBehind[u] = 0
			}
			bk.decodeInto(u, rounds)
		} else {
			bk.setFlags(u, 0, bankCoinsValid)
			bk.coinsBehind[u] += int32(rounds)
		}
	}
}

// decodeInto decodes into node u's coin buffer, allocated on its first
// decode with room for any phase (phaseLen covers Tprog and body-only).
func (bk *NodeStateBank) decodeInto(u, rounds int) {
	if bk.coins[u] == nil {
		bk.coins[u] = make([]uint8, 0, bk.plan.phaseLen)
	}
	bk.coins[u] = bk.coins[u][:rounds]
	bk.plan.decodeCoins(bk.committed[u], &bk.seedCur[u], bk.coins[u])
	bk.setFlags(u, bankCoinsValid, 0)
}

// participate is LBAlg.participate over columns.
func (bk *NodeStateBank) participate(u, b int) (any, bool) {
	if bk.rngs[u].Bits(b) != 0 {
		return nil, false
	}
	return bk.frame[u], true
}

// receive is LBAlg.Receive ported to columns: node u's reception outcome
// of the round at cursor c.
func (bk *NodeStateBank) receive(u int, c cursor, from int, payload any, ok bool) {
	if c.pos < c.pre { // a preamble round
		if bk.flags[u]&bankSeedActive != 0 { // leaders and decided machines ignore receptions
			if msg := bk.seeds[u].Receive(bk.plan.Seed, c.pos+1, payload, ok); msg != nil {
				bk.committed[u] = msg.Seed
				bk.syncSeed(u)
			}
		}
		if c.pos == c.pre-1 {
			bk.commitSeed(u)
		}
		return
	}

	// Body rounds: all states deliver first receptions as recv outputs.
	if ok {
		if dm, isData := payload.(DataMsg); isData {
			bk.deliver(u, c.t, from, dm.Msg)
		}
	}

	// End of phase: sending nodes consume one of their Tack phases.
	if c.pos == bk.plan.phaseLen-1 && bk.flags[u]&bankSendingStarted != 0 {
		bk.phasesLeft[u]--
		if bk.phasesLeft[u] <= 0 {
			bk.ack(u, c.t)
		}
	}
}

// commitSeed is LBAlg.commitSeed over columns: the machine's decision,
// already in committed[u] unless Finalize makes it now, becomes the
// commitment.
func (bk *NodeStateBank) commitSeed(u int) {
	if bk.seeds[u].Finalize() {
		bk.committed[u] = bk.msgs[u].Seed
		bk.syncSeed(u)
	}
	bk.setFlags(u, bankCommitted, 0)
	bk.seedCur[u] = 0
	bk.coinsBehind[u] = 0
	if bk.flags[u]&bankSendingStarted != 0 {
		bk.decodeInto(u, bk.plan.tprog)
	} else {
		bk.setFlags(u, 0, bankCoinsValid)
		bk.coinsBehind[u] = int32(bk.plan.tprog)
	}
}

// deliver is LBAlg.deliver over columns, with LBAlg's set of received ids
// replaced by the last delivered sequence number per source: m is new at u
// iff its sequence number exceeds that source's entry. That is exact
// because u hears each source's messages in non-decreasing sequence order:
// only the source transmits its DataMsg, its sequence numbers start at 1
// and increase, and it starts message k+1 only after it acks k, which
// never goes on the air again. It also relies on ids never restarting,
// which holds because sim.Engine.ReplaceProc refuses banks; a restartable
// bank needs incarnation-aware ids first.
func (bk *NodeStateBank) deliver(u, t, from int, m Message) {
	if bk.recs != nil {
		bk.recs[u].Record(sim.Event{Round: t, Node: u, Kind: sim.EvHear, From: from, MsgID: m.ID})
	}
	h := bk.heard[u]
	if h == nil {
		h = &heardSet{}
		h.srcs = h.buf[:0]
		bk.heard[u] = h
	}
	if !h.advance(int32(m.ID.Src()), int32(m.ID.Seq())) {
		return
	}
	if bk.recs != nil {
		bk.recs[u].Record(sim.Event{Round: t, Node: u, Kind: sim.EvRecv, From: from, MsgID: m.ID})
	}
	if bk.onRecv != nil {
		bk.onRecv(u, m, from)
	}
	if bk.nodeRecv != nil && bk.nodeRecv[u] != nil {
		bk.nodeRecv[u](m, from)
	}
}

// heardInline is the number of sources a heardSet holds without a second
// allocation; it fills the set's 64-byte size class.
const heardInline = 5

// heardSet is one node's dedupe state: the sequence number of the last
// message delivered from each source the node has heard, in first-heard
// order. A node hears at most Δ′ − 1 sources, and few in practice, so the
// set is searched linearly, and its first heardInline entries live in the
// set itself.
type heardSet struct {
	srcs []srcSeq
	buf  [heardInline]srcSeq
}

// srcSeq is one heardSet entry.
type srcSeq struct{ src, seq int32 }

// advance reports whether seq is above src's last delivered sequence
// number (0 for a source not heard before), and if so records it.
func (h *heardSet) advance(src, seq int32) bool {
	for i := range h.srcs {
		if e := &h.srcs[i]; e.src == src {
			if seq <= e.seq {
				return false
			}
			e.seq = seq
			return true
		}
	}
	h.srcs = append(h.srcs, srcSeq{src, seq})
	return true
}

// ack is LBAlg.ack over columns, and drops node u's coin buffer: body
// rounds need bankSendingStarted, so no coin is read before the next decode.
func (bk *NodeStateBank) ack(u, t int) {
	m := bk.pending[u]
	bk.pending[u] = Message{}
	bk.frame[u] = nil
	bk.coins[u] = nil
	bk.setFlags(u, 0, bankHasPending|bankSendingStarted|bankCoinsValid)
	if bk.recs != nil {
		bk.recs[u].Record(sim.Event{Round: t, Node: u, Kind: sim.EvAck, MsgID: m.ID})
	}
	if bk.onAck != nil {
		bk.onAck(u, m)
	}
	if bk.nodeAck != nil && bk.nodeAck[u] != nil {
		bk.nodeAck[u](m)
	}
}

// bcast is LBAlg.Bcast over columns.
func (bk *NodeStateBank) bcast(u int, payload any) (sim.MsgID, error) {
	if bk.flags[u]&bankHasPending != 0 {
		return 0, fmt.Errorf("core: node %d already broadcasting %v", u, bk.pending[u].ID)
	}
	bk.seq[u]++
	m := Message{ID: sim.NewMsgID(u, int(bk.seq[u])), Payload: payload}
	bk.pending[u] = m
	// Box the on-air frame once per broadcast, as LBAlg.Bcast does.
	bk.frame[u] = DataMsg{Msg: m}
	bk.setFlags(u, bankHasPending, bankSendingStarted)
	if bk.recs != nil {
		// Round 0 is stamped with the current round by the trace drain.
		bk.recs[u].Record(sim.Event{Node: u, Kind: sim.EvBcast, MsgID: m.ID, Payload: payload})
	}
	return m.ID, nil
}

// BankNode is one node's Service handle into a NodeStateBank: the engine's
// Init/Procs unit, a per-node Process, and the environment's Bcast/callback
// surface. All state lives in the bank's columns; the handle is two words.
type BankNode struct {
	bank *NodeStateBank
	u    int32
}

var _ Service = (*BankNode)(nil)

// Init implements sim.Process. The node's id is its index in the bank, as
// the engine's env.ID is; the stream is copied and nothing else of env is
// kept but its recorder, while events are recorded.
func (h *BankNode) Init(env *sim.NodeEnv) { h.bank.InitRow(int(h.u), *env.Rng, env.Rec) }

// Transmit implements sim.Process (the lockstep oracle calls it; the
// engine goes through TransmitRange). It runs the same body as a range
// visit.
func (h *BankNode) Transmit(t int) (any, bool) {
	return h.bank.transmit(int(h.u), h.bank.cursorAt(t))
}

// Receive implements sim.Process, running the same body as a range visit.
func (h *BankNode) Receive(t, from int, payload any, ok bool) {
	h.bank.receive(int(h.u), h.bank.cursorAt(t), from, payload, ok)
}

// Bcast implements Service.
func (h *BankNode) Bcast(payload any) (sim.MsgID, error) { return h.bank.bcast(int(h.u), payload) }

// Active implements Service.
func (h *BankNode) Active() bool { return h.bank.flags[h.u]&bankHasPending != 0 }

// ActiveMessage returns the message being broadcast, if Active.
func (h *BankNode) ActiveMessage() (Message, bool) {
	if h.bank.flags[h.u]&bankHasPending == 0 {
		return Message{}, false
	}
	return h.bank.pending[h.u], true
}

// SetOnAck implements Service. The bank's per-node callback column is
// allocated at the first call; NodeStateBank.SetOnAck registers one
// callback for every node instead.
func (h *BankNode) SetOnAck(fn func(Message)) {
	if h.bank.nodeAck == nil {
		h.bank.nodeAck = make([]func(Message), h.bank.n)
	}
	h.bank.nodeAck[h.u] = fn
}

// SetOnRecv implements Service, allocating the per-node column as SetOnAck
// does; NodeStateBank.SetOnRecv registers one callback for every node.
func (h *BankNode) SetOnRecv(fn func(Message, int)) {
	if h.bank.nodeRecv == nil {
		h.bank.nodeRecv = make([]func(Message, int), h.bank.n)
	}
	h.bank.nodeRecv[h.u] = fn
}
