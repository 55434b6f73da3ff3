package core

import "fmt"

// Send schedules one bcast input: node Node receives bcast(Payload) at the
// start of round Round.
type Send struct {
	Node    int
	Round   int
	Payload any
}

// SingleShotEnv issues a fixed schedule of bcast inputs. If a scheduled
// input lands while its node is still broadcasting a previous message —
// which the problem's environment well-formedness forbids — the input is
// deferred round by round until the node's ack frees it.
type SingleShotEnv struct {
	procs []Service
	queue []Send
}

// NewSingleShotEnv builds the environment over the node processes.
func NewSingleShotEnv(procs []Service, sends []Send) *SingleShotEnv {
	q := make([]Send, len(sends))
	copy(q, sends)
	return &SingleShotEnv{procs: procs, queue: q}
}

// BeforeRound implements sim.Environment.
func (e *SingleShotEnv) BeforeRound(t int) {
	remaining := e.queue[:0]
	for _, s := range e.queue {
		if s.Round > t {
			remaining = append(remaining, s)
			continue
		}
		if _, err := e.procs[s.Node].Bcast(s.Payload); err != nil {
			// Node still busy: defer to the next round.
			s.Round = t + 1
			remaining = append(remaining, s)
		}
	}
	e.queue = remaining
}

// AfterRound implements sim.Environment.
func (e *SingleShotEnv) AfterRound(int) {}

// SaturatingEnv keeps a set of sender nodes permanently active: each sender
// gets a bcast input at round 1 and a fresh one at the round after each
// ack. This realises the progress experiments' premise of a reliable
// neighbor that is "active throughout the entire span".
type SaturatingEnv struct {
	procs   []Service
	senders []int
	// Per-node state indexed by node id, so each OnAck hook — run on the
	// engine's worker goroutines — writes only its own node's entries.
	sender, ready []bool
	acks          []int
	seq           int
}

// NewSaturatingEnv builds the environment and hooks the senders' OnAck
// callbacks. Senders must not have competing OnAck handlers.
func NewSaturatingEnv(procs []Service, senders []int) *SaturatingEnv {
	n := len(procs)
	e := &SaturatingEnv{procs: procs, senders: append([]int(nil), senders...),
		sender: make([]bool, n), ready: make([]bool, n), acks: make([]int, n)}
	for _, s := range e.senders {
		e.sender[s] = true
		e.arm(s)
	}
	return e
}

// arm hooks node's OnAck and marks it ready for a fresh bcast.
func (e *SaturatingEnv) arm(node int) {
	e.procs[node].SetOnAck(func(Message) {
		e.acks[node]++
		e.ready[node] = true
	})
	e.ready[node] = true
}

// BeforeRound implements sim.Environment.
func (e *SaturatingEnv) BeforeRound(t int) {
	for _, s := range e.senders {
		if !e.ready[s] {
			continue
		}
		e.ready[s] = false
		e.seq++
		if _, err := e.procs[s].Bcast(fmt.Sprintf("sat-%d-%d", s, e.seq)); err != nil {
			// Unreachable: ready is only set by the node's own ack.
			e.ready[s] = true
		}
	}
}

// AfterRound implements sim.Environment.
func (e *SaturatingEnv) AfterRound(int) {}

// Rearm re-hooks a sender after its Service was replaced — e.g. by a churn
// restart, which abandons the old process together with the OnAck callback
// this environment planted on it. The environment aliases the Service
// slice it was built over, so callers that store the replacement at the
// same index need only call Rearm; the sender then gets a fresh bcast at
// the next BeforeRound (any broadcast in flight at the crash is counted as
// lost, not acked). No-op for nodes that are not senders.
func (e *SaturatingEnv) Rearm(node int) {
	if node >= 0 && node < len(e.sender) && e.sender[node] {
		e.arm(node)
	}
}

// Acks returns the ack count observed for the given sender.
func (e *SaturatingEnv) Acks(node int) int { return e.acks[node] }
