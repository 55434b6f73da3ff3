package core

import (
	"fmt"

	"lbcast/internal/sim"
)

// AckWindow is the bookkeeping shared by the fixed-window broadcast
// services — baseline.Decay, baseline.RoundRobin, baseline.Contention and
// sinr.LocalBcast: accept one bcast(m) input at a time, box its on-air
// DataMsg frame once, count rounds while active, emit the ack exactly
// AckRounds rounds after acceptance, and dedupe channel receptions into
// recv outputs. A service embeds it and supplies only its Transmit policy
// (which probability or slot to use each round); Receive comes with the
// embedding, so all contenders share one tested state machine instead of
// drifting copies.
//
// Unlike LBAlg, whose acknowledgement is tied to its phase structure,
// these services ack on a fixed round count — the window is sized so
// delivery to all neighbors has failed with probability at most ε when it
// expires.
type AckWindow struct {
	// AckRounds is the fixed acknowledgement window: the ack output fires
	// once the broadcast has been active for this many rounds (the bcast
	// round itself counts, so the observed bcast→ack latency is
	// AckRounds−1).
	AckRounds int

	env       *sim.NodeEnv
	pending   *Message
	frame     any // pending's on-air DataMsg, boxed once at Bcast
	activeFor int
	seen      map[sim.MsgID]struct{}
	seq       int
	onAck     func(Message)
	onRecv    func(Message, int)
}

// Init implements the sim.Process initialisation for the embedding service.
func (w *AckWindow) Init(env *sim.NodeEnv) { w.env = env }

// Env returns the node environment handed to Init.
func (w *AckWindow) Env() *sim.NodeEnv { return w.env }

// Bcast implements core.Service: it accepts one broadcast at a time,
// enforcing the environment well-formedness of the LB problem.
func (w *AckWindow) Bcast(payload any) (sim.MsgID, error) {
	if w.pending != nil {
		return 0, fmt.Errorf("core: node %d already broadcasting %v", w.env.ID, w.pending.ID)
	}
	if w.seen == nil {
		w.seen = make(map[sim.MsgID]struct{})
	}
	w.seq++
	m := Message{ID: sim.NewMsgID(w.env.ID, w.seq), Payload: payload}
	w.pending = &m
	w.frame = DataMsg{Msg: m}
	w.activeFor = 0
	w.env.Rec.Record(sim.Event{Node: w.env.ID, Kind: sim.EvBcast, MsgID: m.ID, Payload: payload})
	return m.ID, nil
}

// Active implements core.Service.
func (w *AckWindow) Active() bool { return w.pending != nil }

// ActiveFrame returns the boxed on-air frame of the pending broadcast, or
// ok=false when idle — the input of the embedding service's Transmit.
func (w *AckWindow) ActiveFrame() (frame any, ok bool) {
	return w.frame, w.pending != nil
}

// SetOnAck implements core.Service.
func (w *AckWindow) SetOnAck(fn func(Message)) { w.onAck = fn }

// SetOnRecv implements core.Service.
func (w *AckWindow) SetOnRecv(fn func(Message, int)) { w.onRecv = fn }

// Receive implements sim.Process for the embedding service: deliver any
// received data frame, then advance the acknowledgement window.
func (w *AckWindow) Receive(t, from int, payload any, ok bool) {
	if ok {
		if dm, isData := payload.(DataMsg); isData {
			w.deliver(t, from, dm.Msg)
		}
	}
	if w.pending != nil {
		w.activeFor++
		if w.activeFor >= w.AckRounds {
			m := *w.pending
			w.pending = nil
			w.frame = nil
			w.env.Rec.Record(sim.Event{Round: t, Node: w.env.ID, Kind: sim.EvAck, MsgID: m.ID})
			if w.onAck != nil {
				w.onAck(m)
			}
		}
	}
}

// deliver records the reception as an EvHear event (the progress checkers
// are defined over receptions, not deduplicated recv outputs) and, on first
// sight of the message, the recv output.
func (w *AckWindow) deliver(t, from int, m Message) {
	w.env.Rec.Record(sim.Event{Round: t, Node: w.env.ID, Kind: sim.EvHear, From: from, MsgID: m.ID})
	if w.seen == nil {
		w.seen = make(map[sim.MsgID]struct{})
	}
	if _, dup := w.seen[m.ID]; dup {
		return
	}
	w.seen[m.ID] = struct{}{}
	w.env.Rec.Record(sim.Event{Round: t, Node: w.env.ID, Kind: sim.EvRecv, From: from, MsgID: m.ID})
	if w.onRecv != nil {
		w.onRecv(m, from)
	}
}
