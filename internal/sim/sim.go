package sim

import (
	"lbcast/internal/xrand"
)

// NoTransmitter marks the From field of a reception event when nothing was
// delivered (silence or collision).
const NoTransmitter = -1

// Blocked marks a ReceptionModel outcome where audible energy failed to
// decode (interference or sub-threshold SINR). The engine counts it as a
// collision in the trace statistics; the process still receives ⊥.
const Blocked = -2

// Process is the behaviour of one node, the paper's "process automaton".
// The engine calls Init once, then Transmit and Receive once per round in
// that order. Implementations must confine all state to themselves (plus
// their NodeEnv), because drivers may run distinct processes concurrently.
type Process interface {
	// Init hands the process its identity and local knowledge before round 1.
	// Per the model, a process knows its own id and the bounds Δ and Δ′ but
	// not the network size n.
	Init(env *NodeEnv)
	// Transmit implements the round-t broadcast decision: return the payload
	// and true to transmit, or false to receive this round.
	Transmit(t int) (payload any, transmit bool)
	// Receive delivers the round-t reception outcome: ok=true with the
	// transmitter and payload for a successful reception, ok=false for ⊥
	// (from is NoTransmitter, payload nil). Transmitting nodes always get ⊥.
	Receive(t int, from int, payload any, ok bool)
}

// Environment drives inputs and consumes outputs, per the round structure of
// Section 2. It runs single-threaded: BeforeRound(t) before any process acts
// in round t and AfterRound(t) after every process finished round t.
// Environments interact with processes through whatever typed interface the
// protocol exposes (e.g. LBAlg's Bcast input), mirroring the paper's
// deterministic environment automata.
type Environment interface {
	BeforeRound(t int)
	AfterRound(t int)
}

// LinkScheduler resolves which unreliable edges (indices into
// Dual.UnreliableEdges) join the communication topology each round.
//
// An oblivious scheduler — the model assumed by the paper's upper bounds —
// must answer as a pure function of (t, edge), fixed before the execution.
// Non-oblivious schedulers additionally implement TransmitterAware; they
// deliberately break the model for the adaptive-adversary ablation.
type LinkScheduler interface {
	Included(t int, edge int) bool
}

// BatchLinkScheduler is an optional fast path for LinkScheduler: the engine
// hands the scheduler the round's whole inclusion mask (indexed by
// unreliable edge) to fill in one call, avoiding one interface dispatch per
// edge per round. Implementations must overwrite every entry of mask and
// must agree with Included: mask[i] == Included(t, i) for all i.
//
// Schedulers that do not implement it run through a per-edge compatibility
// shim in the engine.
type BatchLinkScheduler interface {
	LinkScheduler
	IncludedBatch(t int, mask []bool)
}

// SparseLinkScheduler is an optional fast path beyond BatchLinkScheduler for
// schedulers that can answer edge-subset queries. It makes sparse rounds
// O(Σ deg over transmitters) end to end: instead of rewriting the full
// O(|E′\E|) inclusion mask every round, the engine asks only about the edges
// incident to this round's transmitters.
//
// Uniform is the cached-mask fast path: when the round's decision does not
// depend on the edge (Always, Never, Periodic, AntiDecay, and Random at
// P ∈ {0, 1}), it returns that decision with ok=true and the engine skips
// per-edge resolution entirely. When ok=false the engine calls IncludedFor
// with the transmitter-incident edge lists.
//
// Both methods must agree with Included: Uniform(t) = (v, true) implies
// Included(t, e) == v for every e, and IncludedFor must set
// out[i] = Included(t, edges[i]) for every i. IncludedFor must be safe for
// concurrent calls with distinct out buffers — the parallel scatter issues
// them from multiple workers.
type SparseLinkScheduler interface {
	LinkScheduler
	Uniform(t int) (v, ok bool)
	IncludedFor(t int, edges []int32, out []bool)
}

// ReceptionModel is an alternative physical layer: instead of resolving
// receptions through the dual graph topology, the link schedule and the
// single-transmitter collision rule, the engine hands the round's transmitter
// set to the model and lets it decide who hears whom. This is how non-graph
// reception semantics — e.g. the SINR model of internal/sinr, where
// decodability depends on the aggregate interference of all concurrent
// transmitters — plug into the same engine, drivers and trace machinery.
//
// A Config supplies either a Sched (dual-graph path) or a Reception model,
// never both; with Reception set the dual graph still provides the vertex
// set and the Δ/Δ′ bounds handed to processes, but its edges play no role
// in delivery.
type ReceptionModel interface {
	// Resolve decides round t: txs is the ascending list of transmitting
	// nodes, and out (one slot per node, pre-sized by the engine) must be
	// filled for every node with the id of the unique transmitter that node
	// successfully receives, NoTransmitter for silence, or Blocked for
	// energy that failed to decode (counted as a collision). Entries for
	// transmitting nodes are ignored — transmitters always receive ⊥.
	// Resolve must be a deterministic function of (t, txs).
	Resolve(t int, txs []int32, out []int32)
}

// TransmitterAware is implemented by adaptive (non-oblivious) schedulers.
// The engine calls ObserveTransmitters after transmit decisions are fixed
// and before Included is queried for round t, giving the adversary exactly
// the power the paper proves fatal for progress ([11]). transmitting is the
// round's Transmit column (RoundView.Transmit): 1 for a transmitter, 0
// otherwise, read-only and valid only during the call.
type TransmitterAware interface {
	ObserveTransmitters(t int, transmitting []uint8)
}

// NodeEnv is a process's window onto the world, fixed at Init.
type NodeEnv struct {
	// ID is the node's identity (the vertex index; ids are unique).
	ID int
	// Delta and DeltaPrime are the degree bounds Δ and Δ′ every process is
	// assumed to know.
	Delta, DeltaPrime int
	// R is the geographic parameter r ≥ 1.
	R float64
	// Rng is the node's private randomness stream.
	Rng *xrand.Source
	// Rec records protocol events (decide/bcast/ack/recv) into the trace.
	Rec Recorder

	// asleep is the engine's sleep flag for this node (see Sleep); nil on a
	// NodeEnv built by hand or for a Config.Bank engine.
	asleep *bool
}

// Sleep tells the engine whether it may skip this node's process. A process
// may sleep only while its Transmit would return false and its Receive of ⊥
// would change nothing. A sleeping node's Transmit is not called, and its
// Receive runs only in rounds where a transmission reaches it, with the
// outcome (a reception or ⊥) it would have had awake. A process that wakes
// itself (Sleep(false)) on any input that ends the idle state, before the
// next transmit phase, therefore runs exactly as if it never slept; one
// that never calls Sleep is stepped every round. core.AckWindow sleeps from
// Init until a Bcast and again from its ack.
//
// The flag is the node's own: only its Init, Transmit and Receive calls and
// the environment between phases may set it. On a NodeEnv built by hand or
// for a Config.Bank engine Sleep does nothing.
func (env *NodeEnv) Sleep(on bool) {
	if env.asleep != nil {
		*env.asleep = on
	}
}

// Recorder sinks protocol events. Engine-provided recorders are safe to use
// from the owning node during its own Transmit/Receive calls.
type Recorder interface {
	Record(ev Event)
}
