package sched

import (
	"fmt"
	"math"

	"lbcast/internal/dualgraph"
)

// fill overwrites every entry of mask with v.
func fill(mask []bool, v bool) {
	for i := range mask {
		mask[i] = v
	}
}

// Never excludes every unreliable edge in every round: communication happens
// on G alone. The least adversarial oblivious schedule.
type Never struct{}

// Included implements sim.LinkScheduler.
func (Never) Included(int, int) bool { return false }

// IncludedBatch implements sim.BatchLinkScheduler.
func (Never) IncludedBatch(_ int, mask []bool) { fill(mask, false) }

// Uniform implements sim.SparseLinkScheduler: every round is all-excluded.
func (Never) Uniform(int) (bool, bool) { return false, true }

// IncludedFor implements sim.SparseLinkScheduler.
func (Never) IncludedFor(_ int, edges []int32, out []bool) { fill(out[:len(edges)], false) }

// Always includes every unreliable edge in every round: communication
// happens on G′ in full. Maximum steady contention.
type Always struct{}

// Included implements sim.LinkScheduler.
func (Always) Included(int, int) bool { return true }

// IncludedBatch implements sim.BatchLinkScheduler.
func (Always) IncludedBatch(_ int, mask []bool) { fill(mask, true) }

// Uniform implements sim.SparseLinkScheduler: every round is all-included.
func (Always) Uniform(int) (bool, bool) { return true, true }

// IncludedFor implements sim.SparseLinkScheduler.
func (Always) IncludedFor(_ int, edges []int32, out []bool) { fill(out[:len(edges)], true) }

// Random includes each unreliable edge independently with probability P in
// each round. The schedule is a deterministic hash of (Seed, t, edge), so it
// is oblivious: re-querying never changes an answer and the execution's coin
// flips cannot influence it.
//
// Construct with NewRandom to precompute the integer comparison threshold;
// zero-value and literal construction remain valid (the threshold is then
// derived on demand, one float op per batch call).
type Random struct {
	P    float64
	Seed uint64

	// thresh caches randThresh(P). Zero means "not cached": recompute.
	// (For any P > 0, randThresh ≥ 1, so zero is unambiguous.)
	thresh uint64
}

// NewRandom builds a Random scheduler with the inclusion threshold
// precomputed, so steady-state rounds never touch the float path.
func NewRandom(p float64, seed uint64) Random {
	return Random{P: p, Seed: seed, thresh: randThresh(p)}
}

// randThresh compiles an inclusion probability to an integer threshold on
// the top 53 bits of the edge hash: (h>>11)/2^53 < P exactly when
// h>>11 < ⌈P·2^53⌉, the scaling by a power of two being lossless.
func randThresh(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// threshold returns the cached comparison threshold, deriving it when the
// value was constructed as a literal.
func (s Random) threshold() uint64 {
	if s.thresh != 0 {
		return s.thresh
	}
	return randThresh(s.P)
}

// Included implements sim.LinkScheduler. Bit-identical to the batch and
// sparse fills: all three compare the same 53-bit hash against the same
// integer threshold.
func (s Random) Included(t, edge int) bool {
	if s.P <= 0 {
		return false
	}
	if s.P >= 1 {
		return true
	}
	return mix3(s.Seed, uint64(t), uint64(edge))>>11 < s.threshold()
}

// IncludedBatch implements sim.BatchLinkScheduler: one pass over the mask
// with the hash inlined and the probability compiled to an integer
// threshold, no per-edge dispatch or float conversion.
func (s Random) IncludedBatch(t int, mask []bool) {
	if s.P <= 0 {
		fill(mask, false)
		return
	}
	if s.P >= 1 {
		fill(mask, true)
		return
	}
	thresh := s.threshold()
	for i := range mask {
		mask[i] = mix3(s.Seed, uint64(t), uint64(i))>>11 < thresh
	}
}

// Uniform implements sim.SparseLinkScheduler: only the degenerate
// probabilities produce an edge-independent round.
func (s Random) Uniform(int) (bool, bool) {
	if s.P <= 0 {
		return false, true
	}
	if s.P >= 1 {
		return true, true
	}
	return false, false
}

// IncludedFor implements sim.SparseLinkScheduler: hash only the requested
// edges — the engine passes the edges incident to this round's transmitters,
// making sparse rounds independent of |E′\E|.
func (s Random) IncludedFor(t int, edges []int32, out []bool) {
	thresh := s.threshold()
	for i, e := range edges {
		out[i] = mix3(s.Seed, uint64(t), uint64(e))>>11 < thresh
	}
}

// Periodic includes all unreliable edges during the first OnRounds rounds of
// every Period-round cycle and none otherwise. Captures bursty interference
// (e.g. a periodic co-located transmitter).
type Periodic struct {
	Period   int
	OnRounds int
}

// Included implements sim.LinkScheduler.
func (s Periodic) Included(t, _ int) bool {
	if s.Period <= 0 {
		return false
	}
	return ((t-1)%s.Period+s.Period)%s.Period < s.OnRounds
}

// IncludedBatch implements sim.BatchLinkScheduler. The decision is uniform
// across edges, so the batch fill computes it once.
func (s Periodic) IncludedBatch(t int, mask []bool) { fill(mask, s.Included(t, 0)) }

// Uniform implements sim.SparseLinkScheduler: the cycle position decides the
// whole round at once.
func (s Periodic) Uniform(t int) (bool, bool) { return s.Included(t, 0), true }

// IncludedFor implements sim.SparseLinkScheduler.
func (s Periodic) IncludedFor(t int, edges []int32, out []bool) {
	fill(out[:len(edges)], s.Included(t, 0))
}

// AntiDecay is the oblivious adversary sketched in the paper's introduction:
// it knows that a fixed-schedule protocol (Decay, [2]) cycles through
// geometrically decreasing broadcast probabilities with cycle length
// CycleLen, and it inflates contention exactly when the protocol's broadcast
// probability is high — including every unreliable edge during the first
// half of each cycle — and deflates it (excluding all of them) when the
// probability is low. Because the protocol's schedule is fixed and known,
// this adversary is legally oblivious, yet it defeats the fixed schedule;
// LBAlg's seed-permuted schedules are immune by design.
type AntiDecay struct {
	// CycleLen is the length of the target protocol's probability cycle,
	// typically log₂ Δ.
	CycleLen int
	// Offset shifts the adversary's cycle relative to round 1, so tests can
	// align or misalign it with the victim protocol.
	Offset int
	// OnPositions is how many leading cycle positions (the high-probability
	// ones) get every unreliable edge included. Zero selects the naive half
	// split; TunedAntiDecay computes the leak-minimising split instead.
	OnPositions int
}

// Included implements sim.LinkScheduler.
func (s AntiDecay) Included(t, _ int) bool {
	if s.CycleLen <= 0 {
		return false
	}
	on := s.OnPositions
	if on <= 0 {
		on = (s.CycleLen + 1) / 2
	}
	pos := ((t-1+s.Offset)%s.CycleLen + s.CycleLen) % s.CycleLen
	return pos < on
}

// IncludedBatch implements sim.BatchLinkScheduler. The decision is uniform
// across edges, so the batch fill computes it once.
func (s AntiDecay) IncludedBatch(t int, mask []bool) { fill(mask, s.Included(t, 0)) }

// Uniform implements sim.SparseLinkScheduler: the cycle position decides the
// whole round at once.
func (s AntiDecay) Uniform(t int) (bool, bool) { return s.Included(t, 0), true }

// IncludedFor implements sim.SparseLinkScheduler.
func (s AntiDecay) IncludedFor(t int, edges []int32, out []bool) {
	fill(out[:len(edges)], s.Included(t, 0))
}

// TunedAntiDecay builds the adversary with the split that minimises the
// victim's per-cycle delivery probability, given the number of saturated
// senders around the target. At cycle position pos every sender transmits
// with probability p = 2^{−(1+pos)}:
//
//   - included positions leak via "exactly one of the k connected senders
//     transmits": k·p·(1−p)^{k−1};
//   - excluded positions leave only the one reliable sender connected and
//     leak exactly p.
//
// The optimal split keeps links included while contention is high enough
// that the exactly-one event is rarer than the lone-sender event, which is
// what drives the victim's first-reception time to Θ(k/log k) cycles — the
// Θ̃(Δ) collapse the paper's introduction describes — while seed-permuted
// schedules are unaffected.
func TunedAntiDecay(senders, cycleLen int) AntiDecay {
	best, bestLeak := (cycleLen+1)/2, math.Inf(1)
	for split := 0; split <= cycleLen; split++ {
		leak := 0.0
		for pos := 0; pos < cycleLen; pos++ {
			p := math.Pow(2, -float64(1+pos))
			if pos < split {
				leak += float64(senders) * p * math.Pow(1-p, float64(senders-1))
			} else {
				leak += p
			}
		}
		if leak < bestLeak {
			best, bestLeak = split, leak
		}
	}
	return AntiDecay{CycleLen: cycleLen, OnPositions: best}
}

// Adaptive is the non-oblivious adversary of the E-ADAPT ablation. It
// watches the transmit decisions of the current round — power the dual
// graph model explicitly denies its link scheduler — and suppresses
// deliveries at a single target node: whenever exactly one reliable
// neighbor of the target transmits (a round that would otherwise deliver),
// it includes one unreliable edge to a transmitting decoy, manufacturing a
// collision. When no delivery is threatened it includes nothing, starving
// the target entirely.
type Adaptive struct {
	target       int
	reliableNbrs []int32
	// incident lists the unreliable edges touching the target, sorted by
	// edge index. A slice (not a map) keeps the adversary deterministic:
	// identical seeds must produce identical executions, so the collision
	// edge is always the lowest-index eligible one.
	incident []incidentArc

	curRound   int
	chosenEdge int
}

// incidentArc is one unreliable edge at the adversary's target.
type incidentArc struct {
	edge int
	peer int32
}

// NewAdaptive builds an adaptive adversary against the given target node.
func NewAdaptive(d *dualgraph.Dual, target int) (*Adaptive, error) {
	if target < 0 || target >= d.N() {
		return nil, fmt.Errorf("sched: target %d out of range [0,%d)", target, d.N())
	}
	a := &Adaptive{target: target, chosenEdge: -1}
	a.rebind(d)
	return a, nil
}

// Rebind re-derives the adversary's cached view of the dual graph — the
// target's reliable neighborhood and unreliable incidence — after the graph
// was patched (dualgraph.Dual.PatchNode). The caches hold unreliable edge
// indices, which a patch renumbers, and the neighbor slice aliases adjacency
// storage a patch splices in place, so an unrebound Adaptive would replay
// stale adversary state against the new topology. Any in-flight round
// observation is discarded; the engine re-observes before the next query.
func (a *Adaptive) Rebind(d *dualgraph.Dual) error {
	if a.target >= d.N() {
		return fmt.Errorf("sched: rebind target %d out of range [0,%d)", a.target, d.N())
	}
	a.rebind(d)
	return nil
}

func (a *Adaptive) rebind(d *dualgraph.Dual) {
	// Copy, do not alias: PatchNode edits adjacency lists in place, and a
	// cache that silently tracked some splices but not the edge renumbering
	// would be worse than a stale snapshot.
	a.reliableNbrs = append(a.reliableNbrs[:0], d.G.Neighbors(a.target)...)
	// A CSR row lists its edges in increasing index order, so the copy is
	// already sorted by edge.
	a.incident = a.incident[:0]
	uc := d.UnreliableCSR()
	for i := uc.Off[a.target]; i < uc.Off[a.target+1]; i++ {
		a.incident = append(a.incident, incidentArc{edge: int(uc.Edges[i]), peer: uc.Peers[i]})
	}
	a.curRound, a.chosenEdge = 0, -1
}

// ObserveTransmitters implements sim.TransmitterAware: the engine reveals
// the round's transmit decisions before querying Included.
func (a *Adaptive) ObserveTransmitters(t int, transmitting []bool) {
	a.curRound = t
	a.chosenEdge = -1
	reliableTx := 0
	for _, v := range a.reliableNbrs {
		if transmitting[v] {
			reliableTx++
		}
	}
	if reliableTx != 1 {
		// Zero transmitters: silence; two or more: already a collision.
		return
	}
	for _, arc := range a.incident {
		if transmitting[arc.peer] {
			a.chosenEdge = arc.edge
			return
		}
	}
}

// Included implements sim.LinkScheduler.
func (a *Adaptive) Included(t, edge int) bool {
	return t == a.curRound && edge == a.chosenEdge
}

// IncludedBatch implements sim.BatchLinkScheduler: all edges excluded except
// the round's chosen collision edge, if any.
func (a *Adaptive) IncludedBatch(t int, mask []bool) {
	fill(mask, false)
	if t == a.curRound && a.chosenEdge >= 0 && a.chosenEdge < len(mask) {
		mask[a.chosenEdge] = true
	}
}

// Uniform implements sim.SparseLinkScheduler: rounds without a manufactured
// collision are all-excluded; a round with a chosen edge is non-uniform.
func (a *Adaptive) Uniform(t int) (bool, bool) {
	if t == a.curRound && a.chosenEdge >= 0 {
		return false, false
	}
	return false, true
}

// IncludedFor implements sim.SparseLinkScheduler.
func (a *Adaptive) IncludedFor(t int, edges []int32, out []bool) {
	for i, e := range edges {
		out[i] = t == a.curRound && int(e) == a.chosenEdge
	}
}

// mix3 hashes three words with SplitMix64-style finalisation.
func mix3(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
