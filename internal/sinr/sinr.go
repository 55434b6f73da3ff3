package sinr

import (
	"fmt"
	"math"

	"lbcast/internal/geo"
	"lbcast/internal/sim"
)

// Params are the physical constants of the SINR reception inequality.
type Params struct {
	// Alpha is the path-loss exponent α: received power decays as d^{−α}.
	// Free space is ≈ 2; terrestrial deployments are typically 2.5–4.
	Alpha float64
	// Beta is the decoding threshold β ≥ 1: reception succeeds iff
	// SINR ≥ Beta. The comparison uses β > 1, so at most one transmitter
	// can be decoded per round — matching the single-reception interface
	// of the dual graph engine.
	Beta float64
	// Noise is the ambient noise power N > 0. Together with Beta it fixes
	// the isolation reception range: a lone transmitter at power P is
	// decodable up to distance (P/(β·N))^{1/α} (see Params.Range).
	Noise float64
	// MinDist is the near-field clamp d₀ > 0: distances below it are
	// treated as d₀, keeping the far-field law d^{−α} finite for
	// zero-distance (co-located) pairs.
	MinDist float64
	// Tolerance, when positive, enables the region-bucketed resolver:
	// interference is accumulated over the grid index ring by ring outward
	// from each listener and truncated once the maximum possible remaining
	// contribution drops low enough, with every decode/Blocked/silence
	// decision guaranteed to match the exact resolver whenever the
	// listener's SINR decision margin exceeds Tolerance (see
	// Model.resolveOneBucketed for the margin algebra). 0 keeps the exact
	// O(n·|txs|) resolver. Must stay below Beta·Noise — the decode floor —
	// so a truncated transmitter can never have been the decodable one.
	Tolerance float64
}

// DefaultParams returns the calibration used by the comparison experiments:
// α = 3, β = 2, noise fixing an isolation range ≈ 1.77 at unit power (a bit
// beyond the dual graph's reliable range 1 and grey-zone reach r = 1.5, so
// the two physical layers see comparable neighborhoods), d₀ = 0.01.
func DefaultParams() Params {
	return Params{Alpha: 3, Beta: 2, Noise: 0.09, MinDist: 0.01}
}

// Validate checks the physical constants.
func (p Params) Validate() error {
	switch {
	case !(p.Alpha > 0):
		return fmt.Errorf("sinr: path-loss exponent α = %v must be > 0", p.Alpha)
	case !(p.Beta > 0):
		return fmt.Errorf("sinr: threshold β = %v must be > 0", p.Beta)
	case !(p.Noise > 0):
		return fmt.Errorf("sinr: noise N = %v must be > 0", p.Noise)
	case !(p.MinDist > 0):
		return fmt.Errorf("sinr: near-field clamp d₀ = %v must be > 0", p.MinDist)
	case math.IsNaN(p.Tolerance) || p.Tolerance < 0:
		return fmt.Errorf("sinr: tolerance %v must be ≥ 0", p.Tolerance)
	case p.Tolerance > 0 && p.Tolerance >= p.Beta*p.Noise:
		return fmt.Errorf("sinr: tolerance %v must stay below the decode floor β·N = %v",
			p.Tolerance, p.Beta*p.Noise)
	}
	return nil
}

// Range returns the isolation reception range for a transmitter at the given
// power: the largest distance at which a lone transmission still meets the
// threshold, (power/(β·N))^{1/α}.
func (p Params) Range(power float64) float64 {
	return math.Pow(power/(p.Beta*p.Noise), 1/p.Alpha)
}

// PowerAssignment maps each node to its transmission power. The SINR local
// broadcast literature studies uniform, linear (P ∝ d^α to a target) and
// mean power schemes; the model only requires positivity.
type PowerAssignment interface {
	// Power returns node u's transmission power, > 0.
	Power(u int) float64
}

// UniformPower assigns every node the same power — the standard assumption
// of the local broadcast comparisons.
type UniformPower float64

// Power implements PowerAssignment.
func (p UniformPower) Power(int) float64 { return float64(p) }

// PerNodePower assigns node u the power at index u.
type PerNodePower []float64

// Power implements PowerAssignment.
func (p PerNodePower) Power(u int) float64 { return p[u] }

// Model is an SINR reception resolver over a fixed node placement. It
// implements sim.ReceptionModel: the engine hands it each round's
// transmitter set and it decides, per listener, which transmission (if any)
// decodes.
//
// With Params.Tolerance > 0 the model indexes the placement with the shared
// geo.GridIndex and resolves large rounds through the region-bucketed
// resolver (see bucketed.go); the exact resolver remains available as
// ResolveExact and is the oracle the bucketed path is tested against.
// Resolve reuses per-round scratch, so a Model must not be shared by
// concurrent engines.
type Model struct {
	p        Params
	pos      []geo.Point
	power    []float64 // resolved per-node powers
	maxPower float64

	grid   *geo.GridIndex // non-nil iff Tolerance > 0 and the index is dense
	bucket *bucketScratch
	// powMode/minDist2 drive the bucketed path's closed-form d^{−α} from
	// squared distances (see Model.invPowSq).
	powMode  int
	minDist2 float64
	// roundBucketed records which path PrepareRound chose for the current
	// round (see parallel.go).
	roundBucketed bool
}

// NewModel validates the parameters and resolves the power assignment over
// the placement. pos is typically a dual graph's embedding (Dual.Emb), so
// dual-graph and SINR runs share node positions.
func NewModel(pos []geo.Point, pa PowerAssignment, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("sinr: empty placement")
	}
	if pa == nil {
		pa = UniformPower(1)
	}
	m := &Model{p: p, pos: append([]geo.Point(nil), pos...), power: make([]float64, len(pos))}
	for u := range pos {
		pw := pa.Power(u)
		if !(pw > 0) || math.IsInf(pw, 0) || math.IsNaN(pw) {
			return nil, fmt.Errorf("sinr: node %d has non-positive power %v", u, pw)
		}
		m.power[u] = pw
		if pw > m.maxPower {
			m.maxPower = pw
		}
	}
	m.minDist2 = p.MinDist * p.MinDist
	switch p.Alpha {
	case 2, 3, 4:
		m.powMode = int(p.Alpha)
	}
	if p.Tolerance > 0 {
		if gi := geo.BuildGridIndex(m.pos); gi.Dense() {
			m.grid = gi
			m.bucket = newBucketScratch(gi)
		}
		// A sparse index (pathologically spread placement) keeps the exact
		// resolver: ring scans over a mostly-empty bounding box would cost
		// more than they save.
	}
	return m, nil
}

// Params returns the physical constants.
func (m *Model) Params() Params { return m.p }

// Gain returns the path gain between u and v: d(u,v)^{−α} with the
// near-field clamp applied, so co-located pairs get the finite gain
// d₀^{−α}. Gain is symmetric.
func (m *Model) Gain(u, v int) float64 {
	d := geo.Dist(m.pos[u], m.pos[v])
	if d < m.p.MinDist {
		d = m.p.MinDist
	}
	return math.Pow(d, -m.p.Alpha)
}

// ReceivedPower returns the power of v's transmission as heard at u.
func (m *Model) ReceivedPower(u, v int) float64 {
	return m.power[v] * m.Gain(u, v)
}

// Resolve implements sim.ReceptionModel: for every listener the strongest
// transmission (ties broken toward the lowest node id, keeping executions
// deterministic) is tested against the threshold.
//
// The tri-state outcome mirrors the dual-graph statistics: a listener whose
// strongest transmitter would decode in isolation but fails under the
// round's aggregate interference is Blocked (a collision in the trace); one
// whose strongest transmitter is beyond the isolation range hears silence,
// just as a dual-graph listener with no transmitting topology neighbor does.
//
// When the model was built with a positive Tolerance and the transmitter set
// is large enough to pay for the bucketing, resolution goes through the
// region-bucketed resolver; small rounds and tolerance-zero models use the
// exact resolver.
func (m *Model) Resolve(t int, txs []int32, out []int32) {
	if m.grid != nil && len(txs) >= BucketedMinTx {
		m.resolveBucketed(txs, out)
		return
	}
	m.ResolveExact(t, txs, out)
}

// ResolveExact is the O(n·|txs|) reference resolver: every listener scans
// the full transmitter set. It is the test oracle of the bucketed resolver
// and the default when no tolerance was configured.
func (m *Model) ResolveExact(t int, txs []int32, out []int32) {
	for u := range out {
		out[u] = m.resolveOne(u, txs)
	}
}

// resolveOne computes listener u's outcome for the transmitter set txs.
func (m *Model) resolveOne(u int, txs []int32) int32 {
	best, bestPw, sum := int32(-1), 0.0, 0.0
	for _, w := range txs {
		if int(w) == u {
			continue
		}
		pw := m.ReceivedPower(u, int(w))
		sum += pw
		// Strict > keeps the lowest id on exact power ties (txs ascending).
		if pw > bestPw {
			best, bestPw = w, pw
		}
	}
	if best < 0 || bestPw < m.p.Beta*m.p.Noise {
		// No transmitter, or even a clean channel would not decode the
		// strongest one: silence, not a collision.
		return sim.NoTransmitter
	}
	if bestPw >= m.p.Beta*(m.p.Noise+sum-bestPw) {
		return best
	}
	return sim.Blocked
}

var _ sim.ReceptionModel = (*Model)(nil)
