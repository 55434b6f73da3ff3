package baseline

import (
	"math"

	"lbcast/internal/core"
	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
)

// DecayParams configures the Decay baseline.
type DecayParams struct {
	// Delta is the degree bound; the probability cycle has length
	// ⌈log₂ Δ⌉ with per-round probabilities ½, ¼, …, 1/Δ.
	Delta int
	// AckRounds is how many rounds a broadcast stays active before its ack.
	// The classical bound for delivery to all neighbors with probability
	// 1−ε (absent unreliable links) is O(log Δ·(log Δ + log(1/ε))); use
	// DecayAckRounds for that default.
	AckRounds int
}

// DecayAckRounds returns the classical acknowledgement budget for Decay:
// c·logΔ·(logΔ + log(1/ε)) rounds with a small calibrated constant.
func DecayAckRounds(delta int, eps float64) int {
	l := float64(seedagree.Log2Ceil(delta))
	return int(math.Ceil(4 * l * (l + math.Log2(1/eps))))
}

// Decay is the fixed-schedule baseline process. The probability schedule is
// keyed to the global round number (synchronised Decay), which is the
// strongest variant against random losses — and precisely the property the
// anti-Decay scheduler exploits: the schedule is fixed before the execution,
// so the adversary knows it.
//
// The bcast/ack/recv bookkeeping is the shared core.AckWindow; Decay adds
// only its probability schedule.
type Decay struct {
	core.AckWindow
	p     DecayParams
	cycle probCycle
}

var _ core.Service = (*Decay)(nil)

// NewDecay builds the baseline with the given parameters.
func NewDecay(p DecayParams) *Decay {
	if p.AckRounds < 1 {
		p.AckRounds = 1
	}
	d := &Decay{p: p, cycle: newDecayCycle(seedagree.Log2Ceil(p.Delta))}
	d.AckRounds = p.AckRounds
	return d
}

// Prob returns the Decay broadcast probability at global round t:
// 2^{−(1 + (t−1) mod log Δ)}.
func (d *Decay) Prob(t int) float64 { return d.cycle.at(t) }

// probCycle is a fixed probability schedule keyed to the global round
// number — the precomputed form of the Decay-style 2^{−(1+pos)} cycles, so
// the per-round Transmit pays one table lookup instead of a Pow. Shared by
// Decay and the GHLN cycling strategy (whose cycle length is keyed to Δ′).
type probCycle []float64

// newDecayCycle builds the ½, ¼, …, 2^{−n} schedule of length n.
func newDecayCycle(n int) probCycle {
	c := make(probCycle, n)
	for pos := range c {
		c[pos] = math.Pow(2, -float64(1+pos))
	}
	return c
}

// at returns the cycle probability at global round t (1-based).
func (c probCycle) at(t int) float64 { return c[(t-1)%len(c)] }

// Transmit implements sim.Process.
func (d *Decay) Transmit(t int) (any, bool) {
	frame, active := d.ActiveFrame()
	if !active {
		return nil, false
	}
	if d.Env().Rng.Coin(d.Prob(t)) {
		return frame, true
	}
	return nil, false
}

// RoundRobinParams configures the TDMA baseline.
type RoundRobinParams struct {
	// Slots is the TDMA frame length. Delivery is collision-free when node
	// ids are distinct modulo Slots; the Clementi et al. setting uses
	// Slots = n, which is what makes the algorithm inherently global.
	Slots int
}

// RoundRobin is the id-slotted TDMA baseline: node u transmits exactly in
// rounds t with (t−1) ≡ u (mod Slots) while active, and acks after one full
// frame (core.AckWindow with AckRounds = Slots).
type RoundRobin struct {
	core.AckWindow
	p RoundRobinParams
}

var _ core.Service = (*RoundRobin)(nil)

// NewRoundRobin builds the baseline. Slots must be positive.
func NewRoundRobin(p RoundRobinParams) *RoundRobin {
	if p.Slots < 1 {
		p.Slots = 1
	}
	r := &RoundRobin{p: p}
	r.AckRounds = p.Slots
	return r
}

// Transmit implements sim.Process.
func (r *RoundRobin) Transmit(t int) (any, bool) {
	frame, active := r.ActiveFrame()
	if !active {
		return nil, false
	}
	if (t-1)%r.p.Slots == r.Env().ID%r.p.Slots {
		return frame, true
	}
	return nil, false
}

// Chatter is a noise process that transmits an opaque payload with a fixed
// probability every round. It is not a broadcast service — it populates the
// adversary's decoy pool in the E-ADAPT and E-ADV experiments and supplies
// E-SINR's contending senders.
type Chatter struct {
	// P is the per-round transmit probability.
	P   float64
	env *sim.NodeEnv
}

var _ sim.Process = (*Chatter)(nil)

// Init implements sim.Process.
func (c *Chatter) Init(env *sim.NodeEnv) { c.env = env }

// Transmit implements sim.Process.
func (c *Chatter) Transmit(int) (any, bool) {
	if c.env.Rng.Coin(c.P) {
		return c.env.ID, true
	}
	return nil, false
}

// Receive implements sim.Process.
func (c *Chatter) Receive(int, int, any, bool) {}
