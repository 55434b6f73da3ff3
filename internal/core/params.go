package core

import (
	"fmt"
	"math"

	"lbcast/internal/seedagree"
)

// Default calibration constants. The paper's worst-case constants are
// astronomically conservative (Appendix B.1); these values come from the
// E-CONST calibration experiment: the smallest round multipliers for which
// the empirical reliability and progress rates stay above 1 − ε₁ on the
// stress workloads.
const (
	// DefaultC1 multiplies the T_prog formula of Appendix C.1.
	DefaultC1 = 6.0
	// DefaultCAck multiplies the T_ack formula of Appendix C.1.
	DefaultCAck = 1.0
	// DefaultSeedC4 is the c₄ phase-length constant forwarded to SeedAlg.
	DefaultSeedC4 = seedagree.DefaultC4
)

// Params holds the derived LBAlg schedule for one configuration. Build it
// with DeriveParams; all fields are exported for inspection and for the
// ablation experiments, which override individual entries.
type Params struct {
	// Eps1 is the service error bound ε₁ ∈ (0, ½].
	Eps1 float64
	// Eps2 is the error parameter passed to seed agreement, chosen so the
	// preamble's agreement failure probability is at most ε₁/2
	// (Appendix C.1 defines it via SeedAlg's theoretical bound; we use the
	// calibrated ε₂ = ε₁/2, clamped to SeedAlg's ¼ ceiling).
	Eps2 float64
	// R is the geographic parameter r ≥ 1.
	R float64
	// Delta and DeltaPrime are the degree bounds Δ and Δ′.
	Delta, DeltaPrime int
	// LogDelta is log₂ Δ rounded up to a power of two, ≥ 1.
	LogDelta int

	// SeedParams configures the per-phase SeedAlg preamble.
	SeedParams seedagree.Params
	// Ts is the preamble length in rounds: SeedAlg's running time.
	Ts int
	// Tprog is the number of body rounds per phase,
	// O(r²·log(1/ε₁)·log(1/ε₂)·log Δ).
	Tprog int
	// Tack is the number of full sending phases per broadcast,
	// O(Δ·log(Δ/ε₁)/(1−ε₁)).
	Tack int
	// Kappa is the seed length κ: enough bits for Tprog body rounds at
	// K1 + K2 bits per round.
	Kappa int

	// K1 is the per-round participant-coin width: ⌈log₂(r²·log₂(1/ε₂))⌉.
	// A group participates iff its next K1 shared bits are all zero, which
	// happens with probability 2^{−K1} = a/(r²·log(1/ε₂)), a ∈ (½, 1].
	K1 int
	// K2 is the probability-selection width: the least k with 2^k ≥ log Δ.
	// The selected value b ∈ [log Δ] yields broadcast probability 2^{−b}.
	K2 int

	// SeedEveryKPhases runs the seed agreement preamble only on phases
	// i ≡ 1 (mod k), reusing (re-cloning) the previous commitment otherwise.
	// 1 — the paper's algorithm — is the default; larger values implement
	// the Section 4.2 remark for the E-ABL-FREQ ablation.
	SeedEveryKPhases int
}

// Option adjusts parameter derivation.
type Option func(*derivation)

type derivation struct {
	c1, cAck, seedC4 float64
	seedEvery        int
}

// WithC1 overrides the T_prog constant c₁.
func WithC1(c1 float64) Option { return func(d *derivation) { d.c1 = c1 } }

// WithCAck overrides the T_ack constant.
func WithCAck(c float64) Option { return func(d *derivation) { d.cAck = c } }

// WithSeedC4 overrides SeedAlg's phase-length constant c₄.
func WithSeedC4(c float64) Option { return func(d *derivation) { d.seedC4 = c } }

// WithSeedEveryKPhases enables the Section 4.2 variant that refreshes seeds
// only every k phases.
func WithSeedEveryKPhases(k int) Option { return func(d *derivation) { d.seedEvery = k } }

// DeriveParams computes the full LBAlg schedule from the local quantities a
// process knows (Δ, Δ′, r) and the requested error bound ε₁, following
// Appendix C.1 with calibrated constants. No global parameter (n) enters
// any formula — the paper's "true locality".
//
// Every length is computed in floating point and checked before it becomes
// an int, and the schedule is rejected unless its t_ack bound fits in
// MaxRounds: rounds are int32 in the engine's reception slots and in the
// trace columns.
func DeriveParams(delta, deltaPrime int, r, eps1 float64, opts ...Option) (Params, error) {
	if !(eps1 > 0 && eps1 <= 0.5) {
		return Params{}, fmt.Errorf("core: ε₁ = %v outside (0, ½]", eps1)
	}
	if delta < 1 || deltaPrime < delta {
		return Params{}, fmt.Errorf("core: degree bounds Δ=%d, Δ′=%d invalid", delta, deltaPrime)
	}
	if !(r >= 1) || math.IsInf(r, 1) {
		return Params{}, fmt.Errorf("core: r = %v not a finite value ≥ 1", r)
	}
	d := derivation{c1: DefaultC1, cAck: DefaultCAck, seedC4: DefaultSeedC4, seedEvery: 1}
	for _, opt := range opts {
		opt(&d)
	}
	if !(d.c1 > 0) || !(d.cAck > 0) || !(d.seedC4 > 0) || d.seedEvery < 1 {
		return Params{}, fmt.Errorf("core: non-positive constant override")
	}

	eps2 := eps1 / 2
	if eps2 > 0.25 {
		eps2 = 0.25
	}
	logDelta := seedagree.Log2Ceil(delta)
	log1e1 := math.Log2(1 / eps1)
	log1e2 := math.Log2(1 / eps2)

	groupSize, err := schedLen("participation range r²·log(1/ε₂)", r*r*log1e2)
	if err != nil {
		return Params{}, err
	}
	k1 := bitsFor(groupSize)
	k2 := bitsFor(logDelta)

	tprog, err := schedLen("T_prog", d.c1*r*r*log1e1*log1e2*float64(logDelta))
	if err != nil {
		return Params{}, err
	}

	// Seed sizing. With the default k = 1 a seed must cover Tprog body
	// rounds. The Section 4.2 variant (k > 1) reuses one seed for a whole
	// k-phase cycle and reclaims the skipped preambles as extra body
	// rounds, so the worst-case consumption grows accordingly.
	sp := seedagree.Params{Eps1: eps2, Kappa: 1, Delta: delta, C4: d.seedC4}
	if err := sp.Validate(); err != nil {
		return Params{}, fmt.Errorf("core: deriving seed parameters: %w", err)
	}
	ts := sp.Rounds()
	bodyRoundsPerCycle := float64(tprog) + float64(d.seedEvery-1)*float64(ts+tprog)
	kappa, err := schedLen("seed length κ", bodyRoundsPerCycle*float64(k1+k2))
	if err != nil {
		return Params{}, err
	}
	sp.Kappa = kappa

	tack, err := schedLen("T_ack", d.cAck*math.Log(2*float64(delta)/eps1)*float64(deltaPrime)/
		(log1e1*(1-eps1/2)))
	if err != nil {
		return Params{}, err
	}
	if tAck := float64(tack+1) * float64(ts+tprog); tAck > MaxRounds {
		return Params{}, fmt.Errorf("core: t_ack bound of %v rounds exceeds %d", tAck, MaxRounds)
	}

	return Params{
		Eps1:             eps1,
		Eps2:             eps2,
		R:                r,
		Delta:            delta,
		DeltaPrime:       deltaPrime,
		LogDelta:         logDelta,
		SeedParams:       sp,
		Ts:               ts,
		Tprog:            tprog,
		Tack:             tack,
		Kappa:            kappa,
		K1:               k1,
		K2:               k2,
		SeedEveryKPhases: d.seedEvery,
	}, nil
}

// MaxRounds is the longest schedule DeriveParams accepts: t_ack must fit
// the int32 round numbers of the engine and the trace.
const MaxRounds = math.MaxInt32

// schedLen rounds a schedule quantity up to an int of at least 1, rejecting
// values that are not finite or exceed MaxRounds.
func schedLen(name string, v float64) (int, error) {
	v = math.Ceil(v)
	if !(v <= MaxRounds) {
		return 0, fmt.Errorf("core: %s = %v exceeds %d", name, v, MaxRounds)
	}
	return max(int(v), 1), nil
}

// PhaseLen returns the full phase length Ts + Tprog — the service's t_prog
// bound from Theorem 4.1.
func (p Params) PhaseLen() int { return p.Ts + p.Tprog }

// TProgBound returns the t_prog of the LB(t_ack, t_prog, ε) specification.
func (p Params) TProgBound() int { return p.PhaseLen() }

// TAckBound returns the t_ack of the specification: (Tack+1)·(Ts+Tprog),
// covering the wait for the next phase boundary plus Tack sending phases.
func (p Params) TAckBound() int { return (p.Tack + 1) * p.PhaseLen() }

// ParticipantProb returns the per-round group participation probability
// 2^{−K1}.
func (p Params) ParticipantProb() float64 { return math.Pow(2, -float64(p.K1)) }

// PhaseOf maps a global 1-based round to its 1-based phase and 0-based
// position within the phase.
func (p Params) PhaseOf(t int) (phase, pos int) {
	return (t-1)/p.PhaseLen() + 1, (t - 1) % p.PhaseLen()
}

// IsPreamble reports whether the position within a phase lies in the seed
// agreement preamble.
func (p Params) IsPreamble(pos int) bool { return pos < p.Ts }

// bitsFor returns the smallest k ≥ 0 with 2^k ≥ n.
func bitsFor(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}
