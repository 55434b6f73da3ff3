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
// into parallel arrays and leaves the cold state (seed agreement instance,
// committed seed and its cursor, coin buffers, dedupe tables, callbacks) in
// separate columns touched only at phase boundaries, on delivery, or by
// senders.
//
// Why sender-only state exists only for senders: most nodes only listen,
// and listeners never read coins or committed-seed bits. So a node holds a
// coin buffer from its first decode until its ack, and a table of the
// sources it has heard from its first delivery. A commitment is a 40-byte
// xrand.Seed value plus a per-node bit cursor, as in LBAlg; a seed's words
// are regenerated only where a sender decodes. Each node's seed machine is
// allocated once at Init and Reset in place at every preamble.
//
// Why sparse rounds: every node of a bank runs on the same global round, so
// one (phase, pos, pre) cursor computed from t replaces per-node position
// memos, and in most rounds most nodes have nothing to do — the paper's
// service is "truly local". Work bits in the flags byte (seed machine live,
// seed leader, body sender) plus the engine's touched column
// (RoundView.Touched) tell a range call which nodes its round can change;
// the range calls test eight flag bytes per load and visit only those, in
// ascending node order. Every skipped call is a provable no-op of the
// per-node body:
//
//   - transmit at pos == 0 and receive at pos == pre−1 are dense: every
//     node begins the phase (beginPhase) and commits its seed (commitSeed);
//   - preamble transmit visits seed leaders every round (a leader draws its
//     advertising coin, and is retired lazily on its next call) and every
//     live seed machine at seed sub-phase starts (the election draw); on
//     all other rounds seedagree.Alg.Transmit changes nothing;
//   - body transmit visits body senders only (coins valid, sending,
//     pending); anyone else transmits nothing;
//   - receive visits touched nodes — only they can hear anything — plus, at
//     the last body round, sending nodes, which spend one of their Tack
//     phases there.

// flag bits of NodeStateBank.flags. The first four are LBAlg's booleans
// (bankSeedLive is the inverse of LBAlg.seedIdle); the last two are work
// bits derived from the others and kept in sync at every edge, so a range
// scan needs one bit test per node.
const (
	bankSeedLive       = 1 << iota // the seed machine is Active or Leader
	bankCoinsValid                 // LBAlg.coins.valid
	bankSendingStarted             // LBAlg.sendingStarted, ⇔ LBAlg.state == StateSending
	bankHasPending                 // LBAlg.pending != nil
	bankSeedLeader                 // the seed machine is a Leader
	bankBodySender                 // coins valid, sending and pending: body rounds may transmit
)

// bankSenderBits are the flags whose conjunction is bankBodySender.
const bankSenderBits = bankCoinsValid | bankSendingStarted | bankHasPending

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

	// Sender-only state (see the file comment): coins[u] holds the last
	// decode, valid iff flags[u]&bankCoinsValid; committed[u] is the decided
	// seed (zero until a commit) and seedCur[u] this node's bit cursor in it.
	coins     [][]uint8
	committed []xrand.Seed
	seedCur   []int32

	// Cold columns: touched at phase boundaries, deliveries, and the
	// Bcast/ack edges only. lastSeq[u] maps each source u has heard to the
	// sequence number of its last message delivered at u (the dedupe, see
	// deliver); it is allocated at u's first delivery and holds at most Δ′
	// entries.
	pending []Message
	frame   []any
	envs    []*sim.NodeEnv
	seeds   []*seedagree.Alg
	lastSeq []map[int32]int32
	seq     []int32
	onAck   []func(Message)
	onRecv  []func(Message, int)

	// record turns on the hear, recv, ack and bcast events, the ones LBAlg
	// records with RecordHears set. Off by default, so that a bank's
	// memory does not grow with the rounds it runs.
	record bool

	// handles is the contiguous backing of the per-node Service handles, so
	// Node(u) hands out stable pointers without per-node allocations.
	handles []BankNode
}

var _ sim.ProcessBank = (*NodeStateBank)(nil)

// NewNodeStateBank creates the columnar state of n nodes over a shared
// phase plan, each node initialised exactly as NewLBAlgWithPlan initialises
// a fresh LBAlg.
func NewNodeStateBank(plan *PhasePlan, n int) *NodeStateBank {
	bk := &NodeStateBank{
		plan: plan, p: plan.params, n: n,
		flags:      make([]uint8, n),
		phasesLeft: make([]int32, n), coinsBehind: make([]int32, n),
		coins: make([][]uint8, n), committed: make([]xrand.Seed, n), seedCur: make([]int32, n),
		pending: make([]Message, n), frame: make([]any, n),
		envs: make([]*sim.NodeEnv, n), seeds: make([]*seedagree.Alg, n),
		lastSeq: make([]map[int32]int32, n), seq: make([]int32, n),
		onAck: make([]func(Message), n), onRecv: make([]func(Message, int), n),
		handles: make([]BankNode, n),
	}
	for u := 0; u < n; u++ {
		bk.flags[u] = bankSeedLive // Init's fresh seed machine is Active
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
// bcast events on or off; it is off until set. Call it before the first
// Bcast.
func (bk *NodeStateBank) SetRecordEvents(on bool) { bk.record = on }

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

// TransmitRange implements sim.ProcessBank. It clears the range's Transmit
// flags and visits only the nodes whose work bits say round t's transmit
// can do something (see the file comment); payloads are written for
// transmitters only.
func (bk *NodeStateBank) TransmitRange(t, lo, hi int, v *sim.RoundView) {
	c := bk.cursorAt(t)
	clear(v.Transmit[lo:hi])
	if c.pos == 0 {
		for u := lo; u < hi; u++ {
			bk.transmitView(u, c, v)
		}
		return
	}
	var mask uint8 = bankBodySender
	if c.pos < c.pre {
		mask = bankSeedLeader
		if c.pos%bk.plan.Seed.PhaseLen() == 0 {
			mask = bankSeedLive
		}
	}
	for u := nextFlagged(bk.flags, mask, lo, hi); u < hi; u = nextFlagged(bk.flags, mask, u+1, hi) {
		bk.transmitView(u, c, v)
	}
}

// transmitView runs node u's transmit and writes a transmission into v.
// Down nodes do not run.
func (bk *NodeStateBank) transmitView(u int, c cursor, v *sim.RoundView) {
	if v.Down != nil && v.Down[u] {
		return
	}
	if payload, tx := bk.transmit(u, c); tx {
		v.Payloads[u], v.Transmit[u] = payload, true
	}
}

// ReceiveRange implements sim.ProcessBank, resolving each visited node's
// outcome from the round view exactly as the engine's deliver does for
// per-node processes. It visits touched nodes, plus sending nodes at the
// last body round, plus every node at the last preamble round.
func (bk *NodeStateBank) ReceiveRange(t, lo, hi int, v *sim.RoundView) {
	c := bk.cursorAt(t)
	if c.pos == c.pre-1 {
		for u := lo; u < hi; u++ {
			bk.receiveView(u, c, v)
		}
		return
	}
	var mask uint8
	if c.pos == bk.plan.phaseLen-1 {
		mask = bankSendingStarted
	}
	for u := nextReceiver(v.Touched, bk.flags, mask, lo, hi); u < hi; u = nextReceiver(v.Touched, bk.flags, mask, u+1, hi) {
		bk.receiveView(u, c, v)
	}
}

// receiveView delivers node u's outcome of the round in v. Only a touched
// node's Rx slot is read; down nodes do not run.
func (bk *NodeStateBank) receiveView(u int, c cursor, v *sim.RoundView) {
	if v.Down != nil && v.Down[u] {
		return
	}
	if v.Touched[u] != 0 && !v.Transmit[u] {
		if s := &v.Rx[u]; s.Count == 1 {
			bk.receive(u, c, int(s.From), v.Payloads[s.From], true)
			return
		}
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

// nextReceiver returns the first node in [from, hi) that is touched or
// whose flags share a bit with mask, or hi. It tests eight nodes per load.
func nextReceiver(touched, flags []uint8, mask uint8, from, hi int) int {
	m := uint64(mask) * 0x0101010101010101
	u := from
	for ; u+8 <= hi; u += 8 {
		w := binary.LittleEndian.Uint64(touched[u:]) | binary.LittleEndian.Uint64(flags[u:])&m
		if w != 0 {
			return u + bits.TrailingZeros64(w)>>3
		}
	}
	for ; u < hi; u++ {
		if touched[u] != 0 || flags[u]&mask != 0 {
			return u
		}
	}
	return hi
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
		set = bankSeedLive
	case seedagree.StatusLeader:
		set = bankSeedLive | bankSeedLeader
	}
	bk.flags[u] = bk.flags[u]&^(bankSeedLive|bankSeedLeader) | set
}

// initNode is BankNode.Init's body: LBAlg.Init ported to columns.
func (bk *NodeStateBank) initNode(u int, env *sim.NodeEnv) {
	bk.envs[u] = env
	bk.seeds[u] = seedagree.NewAlgWithPlan(bk.plan.Seed, env.ID, env.Rng)
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
		payload, tx := bk.seeds[u].Transmit(c.pos + 1)
		bk.syncSeed(u)
		return payload, tx
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
		bk.seeds[u].Reset()
		bk.setFlags(u, bankSeedLive, bankSeedLeader|bankCoinsValid)
		bk.committed[u] = xrand.Seed{}
		bk.coinsBehind[u] = 0
	} else if bk.committed[u].Len() > 0 {
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
	if bk.envs[u].Rng.Bits(b) != 0 {
		return nil, false
	}
	return bk.frame[u], true
}

// receive is LBAlg.Receive ported to columns: node u's reception outcome
// of the round at cursor c.
func (bk *NodeStateBank) receive(u int, c cursor, from int, payload any, ok bool) {
	if c.pos < c.pre { // a preamble round
		if bk.flags[u]&bankSeedLive != 0 {
			bk.seeds[u].Receive(c.pos+1, payload, ok)
			bk.syncSeed(u)
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

// commitSeed is LBAlg.commitSeed over columns.
func (bk *NodeStateBank) commitSeed(u int) {
	seed := bk.seeds[u]
	seed.Finalize() // defensive; Receive at Ts already finalizes
	bk.syncSeed(u)
	bk.committed[u], bk.seedCur[u] = seed.Decision().Seed, 0
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
	env := bk.envs[u]
	if bk.record {
		env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvHear, From: from, MsgID: m.ID})
	}
	last := bk.lastSeq[u]
	if last == nil {
		last = make(map[int32]int32)
		bk.lastSeq[u] = last
	}
	src, seq := int32(m.ID.Src()), int32(m.ID.Seq())
	if seq <= last[src] {
		return
	}
	last[src] = seq
	if bk.record {
		env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvRecv, From: from, MsgID: m.ID})
	}
	if fn := bk.onRecv[u]; fn != nil {
		fn(m, from)
	}
}

// ack is LBAlg.ack over columns, and drops node u's coin buffer: body
// rounds need bankSendingStarted, so no coin is read before the next decode.
func (bk *NodeStateBank) ack(u, t int) {
	m := bk.pending[u]
	bk.pending[u] = Message{}
	bk.frame[u] = nil
	bk.coins[u] = nil
	bk.setFlags(u, 0, bankHasPending|bankSendingStarted|bankCoinsValid)
	if bk.record {
		env := bk.envs[u]
		env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvAck, MsgID: m.ID})
	}
	if fn := bk.onAck[u]; fn != nil {
		fn(m)
	}
}

// bcast is LBAlg.Bcast over columns.
func (bk *NodeStateBank) bcast(u int, payload any) (sim.MsgID, error) {
	if bk.flags[u]&bankHasPending != 0 {
		return 0, fmt.Errorf("core: node %d already broadcasting %v", bk.envs[u].ID, bk.pending[u].ID)
	}
	bk.seq[u]++
	m := Message{ID: sim.NewMsgID(bk.envs[u].ID, int(bk.seq[u])), Payload: payload}
	bk.pending[u] = m
	// Box the on-air frame once per broadcast, as LBAlg.Bcast does.
	bk.frame[u] = DataMsg{Msg: m}
	bk.setFlags(u, bankHasPending, bankSendingStarted)
	if bk.record {
		// Round 0 is stamped with the current round by the trace drain.
		bk.envs[u].Rec.Record(sim.Event{Node: bk.envs[u].ID, Kind: sim.EvBcast, MsgID: m.ID, Payload: payload})
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

// Init implements sim.Process.
func (h *BankNode) Init(env *sim.NodeEnv) { h.bank.initNode(int(h.u), env) }

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

// SetOnAck implements Service.
func (h *BankNode) SetOnAck(fn func(Message)) { h.bank.onAck[h.u] = fn }

// SetOnRecv implements Service.
func (h *BankNode) SetOnRecv(fn func(Message, int)) { h.bank.onRecv[h.u] = fn }
