package seedagree

import (
	"fmt"
	"math"

	"lbcast/internal/xrand"
)

// Status is a node's SeedAlg state.
type Status uint8

const (
	// StatusActive nodes are still competing in leader elections.
	StatusActive Status = iota + 1
	// StatusLeader nodes won an election and are advertising their seed
	// for the remainder of their phase.
	StatusLeader
	// StatusInactive nodes have decided and take no further action.
	StatusInactive
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusLeader:
		return "leader"
	case StatusInactive:
		return "inactive"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Msg is the (j, s) pair a leader broadcasts: its id and its initial seed.
// A leader puts a pointer to its own Msg on the air; a receiver that
// decides copies the value, so Reset may redraw the seed in place.
type Msg struct {
	Owner int
	Seed  xrand.Seed
}

// Decision is one decide(j, s)_u output.
type Decision struct {
	// Owner is j: the id of the node whose seed was committed.
	Owner int
	// Seed is s: the committed seed value.
	Seed xrand.Seed
	// Round is the local SeedAlg round at which the decision happened
	// (1-based; Rounds()+0 for in-run decisions, Rounds() for defaults).
	Round int
	// Default reports a fall-through decision at the end of all phases
	// (the node never led and never heard a leader).
	Default bool
}

// Params configures SeedAlg. The zero value is invalid; use NewParams or
// fill every field and call Validate.
type Params struct {
	// Eps1 is the algorithm's error parameter ε₁, 0 < ε₁ ≤ ¼.
	Eps1 float64
	// Kappa is the seed length κ in bits, ≥ 1.
	Kappa int
	// Delta is the reliable degree bound Δ; it is rounded up to a power of
	// two internally, matching the paper's simplifying assumption.
	Delta int
	// C4 is the phase length constant c₄. The paper requires an
	// astronomically large worst-case value (≥ 2·4^{c_r·c₃}); the practical
	// default from the E-CONST calibration is DefaultC4.
	C4 float64
}

// DefaultC4 is the calibrated practical phase-length constant.
const DefaultC4 = 4

// NewParams returns validated parameters with the default c₄.
func NewParams(eps1 float64, kappa, delta int) (Params, error) {
	p := Params{Eps1: eps1, Kappa: kappa, Delta: delta, C4: DefaultC4}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if !(p.Eps1 > 0 && p.Eps1 <= 0.25) {
		return fmt.Errorf("seedagree: ε₁ = %v outside (0, ¼]", p.Eps1)
	}
	if p.Kappa < 1 {
		return fmt.Errorf("seedagree: κ = %d < 1", p.Kappa)
	}
	if p.Delta < 1 {
		return fmt.Errorf("seedagree: Δ = %d < 1", p.Delta)
	}
	if !(p.C4 > 0) {
		return fmt.Errorf("seedagree: c₄ = %v not > 0", p.C4)
	}
	// The packed plan tables (Plan.pp) hold phase and position in 16 bits
	// each; check in floating point so no length overflows int first.
	l := math.Log2(1 / p.Eps1)
	if phaseLen := math.Ceil(p.C4 * l * l); !(phaseLen <= maxPlanAxis) {
		return fmt.Errorf("seedagree: phase length %v (c₄ = %v, ε₁ = %v) exceeds %d rounds",
			phaseLen, p.C4, p.Eps1, maxPlanAxis)
	}
	if p.Phases() > maxPlanAxis {
		return fmt.Errorf("seedagree: %d phases exceed %d", p.Phases(), maxPlanAxis)
	}
	return nil
}

// maxPlanAxis is the largest phase length and phase count the packed plan
// tables can address.
const maxPlanAxis = 0xffff

// log2Delta returns log₂ of Δ rounded up to a power of two, at least 1.
func (p Params) log2Delta() int {
	return Log2Ceil(p.Delta)
}

// Phases returns the number of leader election phases, log Δ.
func (p Params) Phases() int { return p.log2Delta() }

// PhaseLen returns the rounds per phase, ⌈c₄·log²(1/ε₁)⌉.
func (p Params) PhaseLen() int {
	l := math.Log2(1 / p.Eps1)
	n := int(math.Ceil(p.C4 * l * l))
	if n < 1 {
		n = 1
	}
	return n
}

// Rounds returns the total running time in rounds: Phases × PhaseLen,
// the O((log Δ)·log²(1/ε₁)) of Theorem 3.1.
func (p Params) Rounds() int { return p.Phases() * p.PhaseLen() }

// leaderProb returns the election probability of phase h (1-based):
// 2^{−(log Δ − h + 1)}, i.e. 1/Δ, 2/Δ, …, ¼, ½.
func (p Params) leaderProb(h int) float64 {
	return math.Pow(2, -float64(p.log2Delta()-h+1))
}

// broadcastProb returns the per-round advertising probability of a leader,
// 1/log₂(1/ε₁) ≤ ½ for ε₁ ≤ ¼.
func (p Params) broadcastProb() float64 {
	return 1 / math.Log2(1/p.Eps1)
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1, at least 1 (so Δ = 1 still yields
// one phase and non-degenerate bit consumption downstream).
func Log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	l := 1
	for v := 2; v < n; v <<= 1 {
		l++
	}
	return l
}

// Plan is the precomputed SeedAlg schedule for one Params value: every
// quantity the per-round state machine needs, resolved once with the float
// math (Pow, Log2, Ceil) that is too costly for once-per-round calls. All
// nodes of a run share the same Params, so one Plan serves every Alg —
// build it once with NewPlan and hand it to NewAlgWithPlan or NewProcess.
type Plan struct {
	p        Params
	phaseLen int
	rounds   int
	bcastP   float64
	// pp maps a local round 1..rounds to its packed (phase << 16 | pos)
	// coordinates — 1-based election phase, 0-based position — replacing
	// the per-round div/mod with one table load. Phases() and PhaseLen()
	// stay far below 2^16 for every reachable ε₁ and Δ (NewPlan checks).
	pp []uint32
	// leaderProb[h] is the election probability of phase h (1-based).
	leaderProb []float64
}

// NewPlan computes the schedule tables for p. It panics on invalid
// parameters (callers validate with Params.Validate first, as NewAlg always
// has; Validate rejects every schedule the tables cannot hold).
func NewPlan(p Params) *Plan {
	pl := &Plan{p: p, phaseLen: p.PhaseLen(), rounds: p.Rounds(), bcastP: p.broadcastProb()}
	if pl.phaseLen > maxPlanAxis || p.Phases() > maxPlanAxis {
		panic("seedagree: schedule too long for the packed plan tables")
	}
	pl.pp = make([]uint32, pl.rounds+1)
	for local := 1; local <= pl.rounds; local++ {
		phase := (local-1)/pl.phaseLen + 1
		pos := (local - 1) % pl.phaseLen
		pl.pp[local] = uint32(phase)<<16 | uint32(pos)
	}
	pl.leaderProb = make([]float64, p.Phases()+1)
	for h := 1; h <= p.Phases(); h++ {
		pl.leaderProb[h] = p.leaderProb(h)
	}
	return pl
}

// PhaseLen returns the rounds per election phase.
func (pl *Plan) PhaseLen() int { return pl.phaseLen }

// Machine is one node's SeedAlg state between rounds, apart from its Msg
// and its private stream: the status and, for a leader, the election phase
// it advertises in. The rules of the algorithm are the methods below, which
// read the shared Plan; the per-node Alg holds one Machine, and
// core.NodeStateBank holds one per node in a column, so both run the same
// code. A Machine decides at most once per run, when it leaves
// StatusActive: as a leader (its own seed), on hearing a leader (the heard
// seed) or at Finalize (its own seed, by default).
type Machine struct {
	status      Status
	leaderPhase uint8 // at most Phases() = ⌈log₂ Δ⌉ ≤ 63
}

// Status returns the machine's status.
func (m *Machine) Status() Status { return m.status }

// Reset rewinds the machine for a fresh run and draws its node's initial
// seed from rng into msg in place; msg.Owner, the node's id, stays.
func (m *Machine) Reset(pl *Plan, msg *Msg, rng *xrand.Source) {
	msg.Seed = rng.DrawSeed(pl.p.Kappa)
	*m = Machine{status: StatusActive}
}

// Transmit runs local round 1..Rounds()'s broadcast rule. Leader election
// for phase h happens at the first round of the phase, before the
// transmission decision, exactly as in the paper; elected reports that the
// machine became a leader, deciding its own seed. advertise reports that it
// puts its Msg on the air this round. The phase arithmetic and election
// probabilities come from the Plan's tables instead of per-round div/mod
// and Pow.
func (m *Machine) Transmit(pl *Plan, rng *xrand.Source, local int) (elected, advertise bool) {
	if local < 1 || local > pl.rounds {
		return false, false
	}
	v := pl.pp[local]
	phase, pos := uint8(v>>16), v&0xffff

	// Lazily retire leaders whose advertising phase ended.
	if m.status == StatusLeader && phase > m.leaderPhase {
		m.status = StatusInactive
	}

	if pos == 0 && m.status == StatusActive && rng.Coin(pl.leaderProb[phase]) {
		m.status, m.leaderPhase = StatusLeader, phase
		elected = true
	}

	if m.status == StatusLeader && phase == m.leaderPhase {
		advertise = rng.Coin(pl.bcastP)
	}
	return elected, advertise
}

// Receive processes the reception outcome of local round 1..Rounds(): an
// Active machine that hears a leader's (j, s) commits to it and goes
// inactive. It returns
// the heard Msg when the machine decided on it, else nil; the caller copies
// the seed out before the leader's next Reset redraws it.
func (m *Machine) Receive(pl *Plan, local int, payload any, ok bool) *Msg {
	if local < 1 || local > pl.rounds || !ok || m.status != StatusActive {
		return nil
	}
	msg, isSeed := payload.(*Msg)
	if !isSeed {
		return nil
	}
	m.status = StatusInactive
	return msg
}

// Finalize applies the end-of-run default: a still-active machine decides
// on its own seed, which it reports. Safe to call more than once.
func (m *Machine) Finalize() bool {
	if m.status != StatusActive {
		return false
	}
	m.status = StatusInactive
	return true
}

// Alg is the per-node SeedAlg state machine, driven by local round numbers
// 1..Params.Rounds(): a Machine with its own Msg, stream and decision
// record. It is engine-agnostic, so LBAlg can embed one instance per phase
// preamble; the Process wrapper adapts it to the simulator for standalone
// runs.
type Alg struct {
	m    Machine
	plan *Plan
	rng  *xrand.Source

	// msg is this run's (id, initial seed); a leader advertises &msg, which
	// an interface holds without allocating, and Reset redraws it in place.
	msg Msg

	decision Decision
}

// NewAlgWithPlan creates the state machine for node id with its private
// randomness, choosing the initial seed uniformly from {0,1}^κ, over a
// shared precomputed schedule (see NewPlan). The plan is read-only to the
// Alg, so any number of nodes may share one.
func NewAlgWithPlan(plan *Plan, id int, rng *xrand.Source) *Alg {
	a := &Alg{plan: plan, rng: rng, msg: Msg{Owner: id}}
	a.Reset()
	return a
}

// Reset rewinds the machine for a fresh run with a freshly drawn initial
// seed (used by LBAlg, which runs seed agreement at every phase preamble).
// The draw replaces the previous seed in place; decisions already made hold
// their seed by value, so nothing else observes it.
func (a *Alg) Reset() {
	a.m.Reset(a.plan, &a.msg, a.rng)
	a.decision = Decision{}
}

// InitialSeed returns this node's own generated seed for the current run.
func (a *Alg) InitialSeed() xrand.Seed { return a.msg.Seed }

// Decided reports whether a decision has been made this run: a machine
// decides exactly when it leaves StatusActive.
func (a *Alg) Decided() bool { return a.m.status != StatusActive }

// Idle reports that the node is inactive: it has decided and is not
// advertising, so Transmit and Receive are no-ops (drawing no private
// randomness) for the rest of the run. LBAlg uses this to skip the calls.
func (a *Alg) Idle() bool { return a.m.status == StatusInactive }

// Decision returns the decision; valid only once Decided is true.
func (a *Alg) Decision() Decision { return a.decision }

// Transmit implements the round's broadcast decision for local round
// 1..Rounds() (see Machine.Transmit).
func (a *Alg) Transmit(local int) (payload any, transmit bool) {
	elected, advertise := a.m.Transmit(a.plan, a.rng, local)
	if elected {
		a.decision = Decision{Owner: a.msg.Owner, Seed: a.msg.Seed, Round: local}
	}
	if advertise {
		return &a.msg, true
	}
	return nil, false
}

// Receive processes the round's reception outcome. Active nodes that hear a
// leader's (j, s) commit to it and go inactive; the final round triggers the
// default decision for nodes that heard nothing and never led.
func (a *Alg) Receive(local int, payload any, ok bool) {
	if msg := a.m.Receive(a.plan, local, payload, ok); msg != nil {
		a.decision = Decision{Owner: msg.Owner, Seed: msg.Seed, Round: local}
	}
	if local == a.plan.rounds {
		a.Finalize()
	}
}

// Finalize applies the end-of-run default: a still-active node decides on
// its own seed. Safe to call more than once.
func (a *Alg) Finalize() {
	if a.m.Finalize() {
		a.decision = Decision{Owner: a.msg.Owner, Seed: a.msg.Seed, Round: a.plan.rounds, Default: true}
	}
}
