package sinr

import (
	"math"

	"lbcast/internal/core"
)

// LayerParams configures the SINR local broadcast layer process.
type LayerParams struct {
	// Delta bounds the number of nodes that can compete within one
	// reception range — the contention the transmit probability must beat.
	Delta int
	// Eps is the per-broadcast failure budget ε used to size the default
	// acknowledgement window.
	Eps float64
	// TxProb overrides the per-round transmit probability; 0 picks the
	// standard 1/(2·Delta) of the uniform-power local broadcast algorithms.
	TxProb float64
	// AckRounds overrides the acknowledgement window; 0 picks
	// LayerAckRounds(Delta, Eps).
	AckRounds int
}

// LayerAckRounds returns the acknowledgement budget of the uniform-power
// local broadcast layer: c·Δ·(ln Δ + ln(1/ε)) rounds. With transmit
// probability Θ(1/Δ) each neighbor decodes a given sender with probability
// Ω(1/Δ) per round (Halldórsson–Mitra Lemma-style), so a coupon argument
// over the ≤ Δ neighbors gives failure probability ≤ ε after that many
// rounds.
func LayerAckRounds(delta int, eps float64) int {
	if delta < 2 {
		delta = 2
	}
	if eps <= 0 || eps >= 1 {
		eps = 0.1
	}
	d := float64(delta)
	return int(math.Ceil(4 * d * (math.Log(d) + math.Log(1/eps))))
}

// LocalBcast is the SINR-layer broadcast process: while a message is
// pending it transmits with a fixed Θ(1/Δ) probability every round, and
// acknowledges after the LayerAckRounds window. The bcast/ack/recv
// bookkeeping is the shared core.AckWindow, so environments, trace
// analysis and the comparison harness treat it exactly like LBAlg and the
// dual-graph baselines — only the physical layer underneath (a Model
// passed as sim.Config.Reception) differs.
type LocalBcast struct {
	core.AckWindow
	p    LayerParams
	prob float64
}

var _ core.Service = (*LocalBcast)(nil)

// NewLocalBcast builds the layer process, deriving the transmit probability
// and acknowledgement window from Delta and Eps where not overridden.
func NewLocalBcast(p LayerParams) *LocalBcast {
	if p.Delta < 2 {
		p.Delta = 2
	}
	if p.TxProb <= 0 || p.TxProb > 1 {
		p.TxProb = 1 / (2 * float64(p.Delta))
	}
	if p.AckRounds < 1 {
		p.AckRounds = LayerAckRounds(p.Delta, p.Eps)
	}
	l := &LocalBcast{p: p, prob: p.TxProb}
	l.AckRounds = p.AckRounds
	return l
}

// Transmit implements sim.Process.
func (l *LocalBcast) Transmit(t int) (any, bool) {
	frame, active := l.ActiveFrame()
	if !active {
		return nil, false
	}
	if l.Env().Rng.Coin(l.prob) {
		return frame, true
	}
	return nil, false
}
