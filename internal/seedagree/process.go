package seedagree

import "lbcast/internal/sim"

// Process adapts Alg to the simulator for standalone seed agreement runs
// (the E-SEED experiments drive it directly). After Params.Rounds() rounds
// the process idles forever; the decision is then available via Decision.
type Process struct {
	params Params
	alg    *Alg
	env    *sim.NodeEnv
	logged bool
}

var _ sim.Process = (*Process)(nil)

// NewProcess returns a standalone SeedAlg process; Init derives its
// private schedule plan.
func NewProcess(p Params) *Process {
	return &Process{params: p}
}

// Init implements sim.Process.
func (sp *Process) Init(env *sim.NodeEnv) {
	sp.env = env
	sp.alg = NewAlg(sp.params, env.ID, env.Rng)
}

// Transmit implements sim.Process.
func (sp *Process) Transmit(t int) (any, bool) {
	payload, tx := sp.alg.Transmit(t)
	sp.recordIfDecided(t)
	return payload, tx
}

// Receive implements sim.Process.
func (sp *Process) Receive(t, _ int, payload any, ok bool) {
	sp.alg.Receive(t, payload, ok)
	sp.recordIfDecided(t)
}

// Decided reports whether the node has committed.
func (sp *Process) Decided() bool { return sp.alg != nil && sp.alg.Decided() }

// Decision returns the committed decision (valid once Decided).
func (sp *Process) Decision() Decision { return sp.alg.Decision() }

// Alg exposes the underlying state machine (tests and checkers).
func (sp *Process) Alg() *Alg { return sp.alg }

// recordIfDecided emits the decide(j, s)_u trace event exactly once.
func (sp *Process) recordIfDecided(t int) {
	if sp.logged || !sp.alg.Decided() {
		return
	}
	sp.logged = true
	d := sp.alg.Decision()
	sp.env.Rec.Record(sim.Event{
		Round:   t,
		Node:    sp.env.ID,
		Kind:    sim.EvDecide,
		From:    d.Owner,
		Payload: d.Seed,
	})
}
