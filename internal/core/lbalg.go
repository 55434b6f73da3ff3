package core

import (
	"fmt"

	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// Message is a payload in flight through the local broadcast service. IDs
// encode the source, keeping the per-node message sets M_u pairwise
// disjoint as the problem definition requires.
type Message struct {
	ID      sim.MsgID
	Payload any
}

// DataMsg is the on-air frame of a body-round transmission.
type DataMsg struct {
	Msg Message
}

// State is an LBAlg node's phase-granular state.
type State int

const (
	// StateReceiving nodes only listen during body rounds.
	StateReceiving State = iota + 1
	// StateSending nodes compete for the channel during body rounds.
	StateSending
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReceiving:
		return "receiving"
	case StateSending:
		return "sending"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Service is the bcast/ack/recv interface of the LB problem, shared by
// LBAlg and by the baseline algorithms it is compared against, so that
// environments and experiment harnesses treat them interchangeably.
type Service interface {
	sim.Process
	// Bcast accepts a bcast(m) input; it fails if the node is still
	// broadcasting a previous message (environment well-formedness).
	Bcast(payload any) (sim.MsgID, error)
	// Active reports whether a broadcast is in progress (bcast accepted,
	// ack not yet generated).
	Active() bool
	// SetOnAck and SetOnRecv register the output callbacks.
	SetOnAck(func(Message))
	SetOnRecv(func(Message, int))
}

// LBAlg is the local broadcast process at one node. It implements
// sim.Process; the environment interacts with it through Bcast and the
// OnAck/OnRecv callbacks, mirroring the bcast/ack/recv interface of the
// LB(t_ack, t_prog, ε) problem.
type LBAlg struct {
	// The leading fields are the per-round hot set, ordered so the
	// receiver-path loads in Transmit/Receive (position memo, phase
	// boundaries, state, coin scratch header) share the node's first cache
	// lines; the wide Params value and the callback/bookkeeping tail live
	// behind them.

	// memoT/memoPhase/memoPos track the current round's phase coordinates
	// incrementally: rounds arrive in order, so the common case is a +1 step
	// (or a repeat from Receive after Transmit) instead of a div/mod.
	// curPreLen is the memoised phase's preamble length (positions below it
	// are preamble rounds, positions at or above are body rounds with coin
	// index pos − curPreLen), refreshed whenever the phase advances;
	// phaseLen mirrors plan.phaseLen.
	memoT, memoPhase, memoPos int
	curPreLen                 int
	phaseLen                  int

	state   State
	pending *Message // accepted bcast input not yet acknowledged
	// seedIdle caches seed.Idle(): once the preamble state machine has
	// decided and is not advertising, its Transmit/Receive are no-ops (no
	// private coin draws), so the calls are skipped for the rest of the
	// preamble. It shares a word with sendingStarted and cur, which keeps
	// LBAlg at 368 B.
	seedIdle       bool
	sendingStarted bool  // pending has entered its sending phases
	cur            int32 // the next unread bit of committed
	// coins is the per-phase scratch of shared coins decoded from committed
	// (see PhasePlan.decodeCoins); body rounds read it instead of consuming
	// from the seed. Only sending nodes decode — a receiver's body round
	// never reads the values — so coinsBehind counts the body rounds a
	// receiving node owes its cursor before it may decode again (relevant
	// only when one commitment spans a SeedEveryKPhases > 1 cycle; with
	// k = 1 the cursor rewinds at every commit and the debt is simply
	// dropped).
	coins       phaseCoins
	coinsBehind int

	env *sim.NodeEnv

	// plan is the precomputed phase schedule (shared across nodes when
	// constructed with NewLBAlgWithPlan), including the seed agreement
	// schedule.
	plan *PhasePlan

	seed      *seedagree.Alg
	committed xrand.Seed // this phase's committed seed; zero until a commit

	frame      any // pending's on-air DataMsg, boxed once at Bcast
	phasesLeft int // full sending phases remaining for pending

	p Params

	seen map[sim.MsgID]struct{}
	seq  int

	// OnAck is invoked when an ack(m)_u output is generated (end of the
	// last sending phase). Optional.
	OnAck func(m Message)
	// OnRecv is invoked on each recv(m)_u output: the first reception of a
	// message. Optional.
	OnRecv func(m Message, from int)
	// RecordHears controls whether every channel-level data reception is
	// recorded as an EvHear event (needed by the progress checker, which is
	// defined over receptions rather than recv outputs). On by default;
	// large sweeps that only need recv/ack events can disable it.
	RecordHears bool
}

var _ Service = (*LBAlg)(nil)

// SetOnAck implements Service.
func (l *LBAlg) SetOnAck(fn func(Message)) { l.OnAck = fn }

// SetOnRecv implements Service.
func (l *LBAlg) SetOnRecv(fn func(Message, int)) { l.OnRecv = fn }

// NewLBAlgWithPlan creates the process over a shared precomputed phase
// schedule, which carries the Params it was derived from. The plan is
// read-only to the process, so any number of nodes may share one.
func NewLBAlgWithPlan(plan *PhasePlan) *LBAlg {
	return &LBAlg{p: plan.params, plan: plan, state: StateReceiving,
		memoPhase: 1, memoPos: -1,
		curPreLen: plan.preambleLen(1), phaseLen: plan.phaseLen,
		seen: make(map[sim.MsgID]struct{}), RecordHears: true}
}

// Init implements sim.Process.
func (l *LBAlg) Init(env *sim.NodeEnv) {
	l.env = env
	l.seed = seedagree.NewAlgWithPlan(l.plan.Seed, env.ID, env.Rng)
}

// Active reports whether the node is actively broadcasting some message: a
// bcast input was received whose ack has not yet been generated.
func (l *LBAlg) Active() bool { return l.pending != nil }

// Bcast accepts a bcast(m)_u input from the environment. Per the problem's
// environment well-formedness, a second bcast may only be issued after the
// previous one's ack; violations are rejected with an error.
func (l *LBAlg) Bcast(payload any) (sim.MsgID, error) {
	if l.pending != nil {
		return 0, fmt.Errorf("core: node %d already broadcasting %v", l.env.ID, l.pending.ID)
	}
	l.seq++
	m := Message{ID: sim.NewMsgID(l.env.ID, l.seq), Payload: payload}
	l.pending = &m
	// Box the on-air frame once per broadcast; body rounds then transmit
	// the same interface value, so steady-state rounds never allocate.
	l.frame = DataMsg{Msg: m}
	l.sendingStarted = false
	// Round 0 is stamped with the current round by the trace drain.
	l.env.Rec.Record(sim.Event{Node: l.env.ID, Kind: sim.EvBcast, MsgID: m.ID, Payload: payload})
	return m.ID, nil
}

// phasePos resolves round t to its (phase, pos) coordinates through the
// incremental cursor: a repeat of the memoised round (Receive after
// Transmit) is free, the sequential +1 step is an increment-and-wrap, and
// only an out-of-order t pays the plan's div/mod.
// advanceRound is the position cursor's slow path, shared by Transmit and
// Receive (which hand-inline the memo repeat and the mid-phase +1 step —
// they are interface-called, so helper calls on the per-round path are pure
// overhead): cross into the next phase for the sequential next round, or
// re-derive the coordinates from the plan for an out-of-order t; either way
// the per-phase preamble length (curPreLen) is refreshed.
func (l *LBAlg) advanceRound(t int) int {
	if t == l.memoT+1 {
		l.memoPos++
		if l.memoPos == l.phaseLen {
			l.memoPos = 0
			l.memoPhase++
			l.curPreLen = l.plan.preambleLen(l.memoPhase)
		}
	} else {
		l.memoPhase, l.memoPos = l.plan.PhaseOf(t)
		l.curPreLen = l.plan.preambleLen(l.memoPhase)
	}
	l.memoT = t
	return l.memoPos
}

// Transmit implements sim.Process: resolve the round's position in the
// phase and dispatch to the preamble state machine or the decoded body
// coins.
func (l *LBAlg) Transmit(t int) (any, bool) {
	// Resolve the round position: the sequential +1 step inline, phase
	// crossings and out-of-order rounds through advanceRound.
	pos := l.memoPos + 1
	if t != l.memoT+1 || pos == l.phaseLen {
		pos = l.advanceRound(t)
	} else {
		l.memoT, l.memoPos = t, pos
	}

	if pos == 0 {
		l.beginPhase(l.memoPhase)
	}

	if pos < l.curPreLen { // a preamble round
		if l.seedIdle {
			return nil, false // decided, not advertising: a no-op round
		}
		payload, tx := l.seed.Transmit(pos + 1)
		l.seedIdle = l.seed.Idle()
		return payload, tx
	}
	// A body round, with coin index pos − curPreLen (under the Section 4.2
	// variant, a skipped preamble's rounds are body rounds too — curPreLen
	// is 0 there). The three-step logic of Section 4.2 — group
	// participation coin (K1 shared bits, participate iff all zero) and
	// shared probability selection b ∈ [log Δ] (K2 shared bits) — was
	// resolved for the whole phase by decodeCoins when the seed was
	// committed, identically for every holder of the owner's seed. What
	// remains per round is the coin lookup and, for sending participants,
	// the private broadcast coin with probability 2^{−b}.
	if !l.coins.valid || l.state != StateSending || l.pending == nil {
		return nil, false
	}
	j := pos - l.curPreLen
	if j >= len(l.coins.b) {
		return nil, false // out-of-order jump past the decoded span; fail closed
	}
	b := l.coins.b[j]
	if b == 0 {
		return nil, false // non-participant round for this owner group
	}
	return l.participate(int(b))
}

// beginPhase performs start-of-phase bookkeeping: pending broadcasts enter
// the sending state, the preamble state machine restarts, and
// skipped-preamble phases (Section 4.2 variant) decode their body coins
// from the persisting commitment.
func (l *LBAlg) beginPhase(phase int) {
	if l.pending != nil && !l.sendingStarted {
		l.sendingStarted = true
		l.state = StateSending
		l.phasesLeft = l.p.Tack
	}
	if l.plan.RunsPreamble(phase) {
		l.seed.Reset()
		l.seedIdle = false
		l.committed = xrand.Seed{}
		l.coins.invalidate()
		l.coinsBehind = 0
	} else if l.committed.Len() > 0 {
		// The whole phase is body rounds on the previous commitment. A
		// sending node settles any cursor debt from receiver phases, then
		// decodes this phase's coins from where the cursor left off; a
		// receiver just grows the debt (its body rounds never read the
		// values).
		rounds := l.plan.BodyRounds(phase)
		if l.state == StateSending {
			if l.coinsBehind > 0 {
				l.plan.skipCoins(l.committed, &l.cur, l.coinsBehind)
				l.coinsBehind = 0
			}
			l.plan.decodeCoins(l.committed, &l.cur, l.coins.reuse(rounds))
		} else {
			l.coins.invalidate()
			l.coinsBehind += rounds
		}
	}
}

// participate is the (rare, ≈2^{−K1}) participant tail of a sending body
// round, split out of Transmit: draw the private broadcast coin with
// probability 2^{−b}.
func (l *LBAlg) participate(b int) (any, bool) {
	if l.env.Rng.Bits(b) != 0 {
		return nil, false
	}
	return l.frame, true
}

// Receive implements sim.Process.
func (l *LBAlg) Receive(t, from int, payload any, ok bool) {
	// The engine calls Receive for the round Transmit just memoised, so
	// the repeat hit is inline and anything else re-derives.
	pos := l.memoPos
	if t != l.memoT {
		pos = l.advanceRound(t)
	}

	if pos < l.curPreLen { // a preamble round
		if !l.seedIdle {
			l.seed.Receive(pos+1, payload, ok)
			l.seedIdle = l.seed.Idle()
		}
		if pos == l.curPreLen-1 {
			l.commitSeed()
		}
		return
	}

	// Body rounds: all states deliver first receptions as recv outputs.
	if ok {
		if dm, isData := payload.(DataMsg); isData {
			l.deliver(t, from, dm.Msg)
		}
	}

	// End of phase: sending nodes consume one of their Tack phases.
	if pos == l.phaseLen-1 && l.state == StateSending {
		l.phasesLeft--
		if l.phasesLeft <= 0 {
			l.ack(t)
		}
	}
}

// commitSeed adopts this phase's seed agreement decision: the decided seed
// by value, read from its first bit, so every node of an owner group sees
// the same bits while its cursor advances on its own. The phase's remaining
// body rounds (Tprog of them) have their coins decoded immediately — same
// bits, same order as the incremental per-round consumption.
func (l *LBAlg) commitSeed() {
	l.seed.Finalize() // defensive; Receive at Ts already finalizes
	l.committed, l.cur = l.seed.Decision().Seed, 0
	l.coinsBehind = 0
	if l.state == StateSending {
		l.plan.decodeCoins(l.committed, &l.cur, l.coins.reuse(l.plan.tprog))
	} else {
		// Receivers never read the decoded values; leave the scratch
		// invalid and record the debt in case this commitment spans a
		// k > 1 cycle and the node starts sending in a later phase.
		l.coins.invalidate()
		l.coinsBehind = l.plan.tprog
	}
}

// deliver records the channel-level reception and generates the recv(m)_u
// output on first reception.
func (l *LBAlg) deliver(t, from int, m Message) {
	if l.RecordHears {
		l.env.Rec.Record(sim.Event{Round: t, Node: l.env.ID, Kind: sim.EvHear, From: from, MsgID: m.ID})
	}
	if _, dup := l.seen[m.ID]; dup {
		return
	}
	l.seen[m.ID] = struct{}{}
	l.env.Rec.Record(sim.Event{Round: t, Node: l.env.ID, Kind: sim.EvRecv, From: from, MsgID: m.ID})
	if l.OnRecv != nil {
		l.OnRecv(m, from)
	}
}

// ack generates the ack(m)_u output and returns to the receiving state.
func (l *LBAlg) ack(t int) {
	m := *l.pending
	l.pending = nil
	l.frame = nil
	l.sendingStarted = false
	l.state = StateReceiving
	l.env.Rec.Record(sim.Event{Round: t, Node: l.env.ID, Kind: sim.EvAck, MsgID: m.ID})
	if l.OnAck != nil {
		l.OnAck(m)
	}
}
