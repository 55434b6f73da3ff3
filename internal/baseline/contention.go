// This file implements the contention-management baseline from Ghaffari,
// Haeupler, Lynch and Newport, "Bounds on Contention Management in Radio
// Networks" (GHLN): the comparison workload named in ROADMAP alongside the
// SINR layer. GHLN study the acknowledgement and progress problems in the
// same dual graph model as the source paper and show that, against a
// scheduler controlling all of E′ \ E, the relevant contention bound is Δ′:
// acknowledgement needs Ω(Δ′·log n) rounds, and their matching strategies
// keep the transmit probability keyed to Δ′ rather than Δ.
//
// Contention renders the two upper-bound strategy shapes as one process:
//
//   - StrategyUniform — the acknowledgement-bound strategy: transmit with
//     the fixed probability 1/Δ′ every round. Immune to schedule timing (no
//     phase structure for the adversary to anti-align with) and optimal for
//     delivering to every neighbor, at the cost of a Θ(Δ′·log(Δ′/ε)) ack
//     window.
//   - StrategyCycling — the progress-bound strategy: cycle the probabilities
//     ½, ¼, …, 1/Δ′ (Decay's schedule stretched to the unreliable degree).
//     Some round of each cycle matches the live contention whatever subset
//     of unreliable links the scheduler includes, giving progress in
//     O(log Δ′) rounds per cycle, but its fixed schedule is exploitable by
//     anti-aligned schedulers (see sched.AntiDecay).
//
// Both implement core.Service, so the comparison harness runs them
// interchangeably with LBAlg and the SINR layer.

package baseline

import (
	"fmt"
	"math"

	"lbcast/internal/core"
	"lbcast/internal/seedagree"
)

// Strategy selects which GHLN upper-bound shape a Contention process runs.
type Strategy int

const (
	// StrategyUniform transmits with fixed probability 1/Δ′ (the
	// acknowledgement-bound strategy).
	StrategyUniform Strategy = iota + 1
	// StrategyCycling cycles ½, ¼, …, 1/Δ′ (the progress-bound strategy).
	StrategyCycling
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyUniform:
		return "uniform"
	case StrategyCycling:
		return "cycling"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ContentionParams configures the GHLN baseline.
type ContentionParams struct {
	// DeltaPrime is Δ′, the unreliable degree bound that keys both
	// strategies' probabilities.
	DeltaPrime int
	// Strategy picks the upper-bound shape; the zero value means
	// StrategyUniform.
	Strategy Strategy
	// Eps sizes the default acknowledgement window.
	Eps float64
	// AckRounds overrides the acknowledgement window; 0 picks
	// ContentionAckRounds(DeltaPrime, Eps).
	AckRounds int
}

// ContentionAckRounds returns the acknowledgement budget of the GHLN
// uniform strategy: c·Δ′·(ln Δ′ + ln(1/ε)). At probability 1/Δ′ a given
// neighbor decodes the sender with probability ≥ (1/Δ′)(1−1/Δ′)^{Δ′−1} ≥
// 1/(e·Δ′) per round even when all Δ′ potential interferers are live, so a
// union bound over the neighbors brings the failure probability under ε
// within that window — the Θ(Δ′·log n) shape of GHLN's acknowledgement
// bound.
func ContentionAckRounds(deltaPrime int, eps float64) int {
	if deltaPrime < 2 {
		deltaPrime = 2
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	d := float64(deltaPrime)
	return int(math.Ceil(3 * d * (math.Log(d) + math.Log(1/eps))))
}

// Contention is the GHLN contention-management baseline process: the
// shared core.AckWindow bookkeeping under a Δ′-keyed transmit probability.
type Contention struct {
	core.AckWindow
	p ContentionParams
	// cycle is the precomputed per-round probability schedule: the Δ′-keyed
	// Decay cycle for StrategyCycling, a single 1/Δ′ entry for
	// StrategyUniform (so Prob is one table lookup either way).
	cycle probCycle
}

var _ core.Service = (*Contention)(nil)

// NewContention builds the baseline with the given parameters.
func NewContention(p ContentionParams) *Contention {
	if p.DeltaPrime < 2 {
		p.DeltaPrime = 2
	}
	if p.Strategy == 0 {
		p.Strategy = StrategyUniform
	}
	if p.AckRounds < 1 {
		p.AckRounds = ContentionAckRounds(p.DeltaPrime, p.Eps)
	}
	c := &Contention{p: p}
	if p.Strategy == StrategyCycling {
		c.cycle = newDecayCycle(seedagree.Log2Ceil(p.DeltaPrime))
	} else {
		c.cycle = probCycle{1 / float64(p.DeltaPrime)}
	}
	c.AckRounds = p.AckRounds
	return c
}

// Prob returns the transmit probability at global round t: 1/Δ′ for the
// uniform strategy, 2^{−(1 + (t−1) mod ⌈log Δ′⌉)} for the cycling one.
func (c *Contention) Prob(t int) float64 { return c.cycle.at(t) }

// Transmit implements sim.Process.
func (c *Contention) Transmit(t int) (any, bool) {
	frame, active := c.ActiveFrame()
	if !active {
		return nil, false
	}
	if c.Env().Rng.Coin(c.Prob(t)) {
		return frame, true
	}
	return nil, false
}
