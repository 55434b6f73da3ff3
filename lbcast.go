// Package lbcast is a local broadcast layer for unreliable radio networks:
// a Go implementation of Lynch & Newport, "A (Truly) Local Broadcast Layer
// for Unreliable Radio Networks" (PODC 2015).
//
// The package simulates a synchronous dual graph radio network — reliable
// links G plus adversarially scheduled unreliable links G′ — and runs the
// paper's LBAlg local broadcast service on every node. The service offers
// the bcast/ack/recv interface of a (probabilistic) abstract MAC layer with
// two guarantees parameterised by an error bound ε:
//
//   - Reliability: a broadcast reaches every reliable neighbor before its
//     acknowledgement with probability ≥ 1−ε, within t_ack rounds.
//   - Progress: a node whose reliable neighbor is actively broadcasting
//     throughout a t_prog-round phase receives some message with
//     probability ≥ 1−ε.
//
// Both bounds depend only on local quantities (the degree bounds Δ and Δ′,
// the geographic parameter r and ε) — never on the network size n.
//
// Quick start:
//
//	nw, err := lbcast.NewCluster(8, lbcast.WithEpsilon(0.1))
//	if err != nil { ... }
//	nw.OnReceive(func(node int, d lbcast.Delivery) { fmt.Println(node, d.Payload) })
//	id, _ := nw.Broadcast(0, "hello")
//	nw.RunUntilAck(id)
//
// The internal packages hold the full machinery: the round engine, seed
// agreement, the LB(t_ack, t_prog, ε) specification checker, baselines and
// the experiment harness (see docs/ARCHITECTURE.md and docs/EXPERIMENTS.md).
package lbcast

import (
	"fmt"
	"sync"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// Point is a position in the plane used for geometric network construction.
type Point struct {
	X, Y float64
}

// MessageID identifies a broadcast accepted by the service.
type MessageID = sim.MsgID

// Delivery describes one recv output at a node.
type Delivery struct {
	// ID is the message identity; ID.Src() is the broadcaster.
	ID MessageID
	// From is the node heard on the air (always the broadcaster in LBAlg).
	From int
	// Payload is the broadcast payload.
	Payload any
	// Round is the reception round.
	Round int
}

// Schedule summarises the derived LBAlg timing for a network.
type Schedule struct {
	// Epsilon is the configured error bound ε.
	Epsilon float64
	// Delta and DeltaPrime are the network's degree bounds.
	Delta, DeltaPrime int
	// TProg and TAck are the Theorem 4.1 latency bounds in rounds.
	TProg, TAck int
	// PhaseRounds is the full phase length (seed agreement + body).
	PhaseRounds int
	// PreambleRounds is T_s, the seed-agreement preamble that opens a
	// phase: its first PreambleRounds rounds. Under
	// WithSeedAgreementEvery(k) only phases 1, k+1, 2k+1, … open with one;
	// the others are body rounds throughout.
	PreambleRounds int
}

// Scheduler selects the unreliable-link adversary for a network. A
// Scheduler built from an out-of-range parameter carries the error, and a
// constructor given it returns that error.
type Scheduler struct {
	impl sim.LinkScheduler
	name string
	err  error
}

// ScheduleNever excludes all unreliable links (benign).
func ScheduleNever() Scheduler { return Scheduler{impl: sched.Never{}, name: "never"} }

// ScheduleAlways includes all unreliable links every round.
func ScheduleAlways() Scheduler { return Scheduler{impl: sched.Always{}, name: "always"} }

// ScheduleRandom includes each unreliable link independently with
// probability p each round (obliviously, keyed by seed). A p outside
// [0, 1], or NaN, makes the constructor fail.
func ScheduleRandom(p float64, seed uint64) Scheduler {
	if !(p >= 0 && p <= 1) {
		return Scheduler{err: fmt.Errorf("lbcast: random scheduler probability %v outside [0, 1]", p)}
	}
	return Scheduler{impl: sched.NewRandom(p, seed), name: "random"}
}

// ScheduleAntiDecay is the paper's §1 adversary tuned against fixed
// probability cycles of the given length. A cycleLen below 1 makes the
// constructor fail.
func ScheduleAntiDecay(cycleLen int) Scheduler {
	if cycleLen < 1 {
		return Scheduler{err: fmt.Errorf("lbcast: anti-decay cycle length %d below 1", cycleLen)}
	}
	return Scheduler{impl: sched.AntiDecay{CycleLen: cycleLen}, name: "anti-decay"}
}

// Driver selects how the simulator executes rounds. All drivers produce
// bit-identical executions; they differ only in concurrency.
type Driver int

const (
	// DriverSequential steps nodes in a single goroutine (default).
	DriverSequential Driver = iota + 1
	// DriverWorkerPool parallelises node steps over a worker pool.
	DriverWorkerPool
)

// Option configures network construction.
type Option func(*options)

type options struct {
	eps       float64
	seed      uint64
	scheduler Scheduler
	seedEvery int
	driver    Driver
	// recordEvents turns on the bank's event recording, which must be on
	// before the engine's Init; only the package's golden tests set it.
	recordEvents bool
}

func defaultOptions() options {
	return options{eps: 0.1, seed: 1, scheduler: ScheduleRandom(0.5, 1), seedEvery: 1, driver: DriverSequential}
}

// WithEpsilon sets the service error bound ε ∈ (0, ½]. Default 0.1.
func WithEpsilon(eps float64) Option { return func(o *options) { o.eps = eps } }

// WithSeed sets the experiment seed resolving all node randomness.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithScheduler selects the unreliable-link adversary. Default: random ½.
func WithScheduler(s Scheduler) Option { return func(o *options) { o.scheduler = s } }

// WithSeedAgreementEvery runs the seed agreement preamble every k phases
// (the Section 4.2 variant). Default 1.
func WithSeedAgreementEvery(k int) Option { return func(o *options) { o.seedEvery = k } }

// WithDriver selects the execution driver. Default DriverSequential; any
// other value than the two drivers makes the constructor fail.
func WithDriver(d Driver) Option { return func(o *options) { o.driver = d } }

// Network is a simulated dual graph radio network running the local
// broadcast service on every node. It is not safe for concurrent use.
//
// A Network is a service, not a log: it keeps no event history, only the
// channel counters Stats reports and per-node protocol state whose size
// depends on the topology (at most Δ′ entries per node), so its memory
// does not grow with the rounds it runs.
type Network struct {
	dual   *dualgraph.Dual
	engine *sim.Engine
	bank   *core.NodeStateBank
	params core.Params

	onReceive func(node int, d Delivery)
	onAck     func(node int, id MessageID)
	// ackedSeq[u] is the sequence number of node u's last acked broadcast;
	// every lower one was acked before it, since a node has at most one
	// outstanding broadcast and its sequence numbers increase from 1.
	// ackMu guards it: under DriverWorkerPool, nodes in different ranges
	// ack concurrently, and a callback may call Acked.
	ackMu    sync.Mutex
	ackedSeq []int32
}

// NewGeometric builds a network from an explicit embedding: vertices within
// distance 1 get reliable links, pairs within (1, r] get unreliable links,
// and farther pairs are unconnected (the r-geographic model). Building the
// links costs O(n·Δ′): a grid of squares of side ½ bounds each node's
// candidate neighbours by the local density, not by n.
func NewGeometric(points []Point, r float64, opts ...Option) (*Network, error) {
	emb := make([]geo.Point, len(points))
	for i, p := range points {
		emb[i] = geo.Point{X: p.X, Y: p.Y}
	}
	o := gather(opts)
	d, err := dualgraph.Geometric(emb, r)
	if err != nil {
		return nil, err
	}
	return assemble(d, o)
}

// NewCluster builds a single-hop cluster of n nodes (a reliable clique),
// the paper's canonical local setting.
func NewCluster(n int, opts ...Option) (*Network, error) {
	o := gather(opts)
	d, err := dualgraph.SingleHopCluster(n, 1, xrand.New(o.seed))
	if err != nil {
		return nil, err
	}
	return assemble(d, o)
}

// NewRandomGeometric scatters n nodes uniformly over a w×h area with
// geographic parameter r; all grey-zone links are unreliable.
func NewRandomGeometric(n int, w, h, r float64, opts ...Option) (*Network, error) {
	o := gather(opts)
	d, err := dualgraph.RandomGeometric(n, w, h, r, dualgraph.GreyUnreliable, xrand.New(o.seed))
	if err != nil {
		return nil, err
	}
	return assemble(d, o)
}

func gather(opts []Option) options {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func assemble(d *dualgraph.Dual, o options) (*Network, error) {
	if o.scheduler.err != nil {
		return nil, o.scheduler.err
	}
	var driver sim.Driver
	switch o.driver {
	case DriverSequential:
		driver = sim.DriverSequential
	case DriverWorkerPool:
		driver = sim.DriverWorkerPool
	default:
		return nil, fmt.Errorf("lbcast: unknown driver %d", o.driver)
	}
	delta, deltaPrime := d.Delta(), d.DeltaPrime()
	if delta == 0 {
		return nil, fmt.Errorf("lbcast: empty network")
	}
	params, err := core.DeriveParams(delta, deltaPrime, d.R, o.eps,
		core.WithSeedEveryKPhases(o.seedEvery))
	if err != nil {
		return nil, err
	}
	nw := &Network{dual: d, params: params, ackedSeq: make([]int32, d.N())}
	// One precomputed phase schedule serves every node (the plan is
	// read-only to the processes), and one state bank holds every node's
	// protocol state in flat columns: the engine steps it through the batch
	// range path (sim.ProcessBank), which the core lockstep oracle test pins
	// bit-identical to per-node LBAlg processes. Its two callbacks take the
	// node, so no closure exists per node.
	plan := core.NewPhasePlan(params)
	nw.bank = core.NewNodeStateBank(plan, d.N())
	nw.bank.SetRecordEvents(o.recordEvents)
	nw.bank.SetOnRecv(func(node int, m core.Message, from int) {
		if nw.onReceive != nil {
			nw.onReceive(node, Delivery{ID: m.ID, From: from, Payload: m.Payload, Round: nw.engine.Round()})
		}
	})
	nw.bank.SetOnAck(func(node int, m core.Message) {
		nw.ackMu.Lock()
		nw.ackedSeq[node] = int32(m.ID.Seq())
		nw.ackMu.Unlock()
		if nw.onAck != nil {
			nw.onAck(node, m.ID)
		}
	})
	// The bank initialises its own rows (sim.BankInit), so no per-node
	// handle slice is built.
	engine, err := sim.New(sim.Config{Dual: d, Bank: nw.bank,
		Sched: o.scheduler.impl, Seed: o.seed, Driver: driver})
	if err != nil {
		return nil, err
	}
	nw.engine = engine
	return nw, nil
}

// Close releases the persistent worker pool of DriverWorkerPool; for
// DriverSequential it is a no-op. An unreachable Network's pool is also
// released by the garbage collector, but only Close releases it promptly.
// Safe to call repeatedly.
func (nw *Network) Close() { nw.engine.Close() }

// Size returns the number of nodes.
func (nw *Network) Size() int { return nw.dual.N() }

// Schedule returns the derived timing bounds.
func (nw *Network) Schedule() Schedule {
	return Schedule{
		Epsilon:        nw.params.Eps1,
		Delta:          nw.params.Delta,
		DeltaPrime:     nw.params.DeltaPrime,
		TProg:          nw.params.TProgBound(),
		TAck:           nw.params.TAckBound(),
		PhaseRounds:    nw.params.PhaseLen(),
		PreambleRounds: nw.params.Ts,
	}
}

// OnReceive registers the recv output handler (one per network). Under
// DriverWorkerPool, handler calls for different nodes may run concurrently;
// calls for one node never overlap. The same holds for OnAck.
func (nw *Network) OnReceive(fn func(node int, d Delivery)) { nw.onReceive = fn }

// OnAck registers the ack output handler (one per network).
func (nw *Network) OnAck(fn func(node int, id MessageID)) { nw.onAck = fn }

// Broadcast hands a message to node's local broadcast service. It fails if
// the node is still broadcasting a previous message (the service supports
// one outstanding broadcast per node, per the problem's environment rules).
func (nw *Network) Broadcast(node int, payload any) (MessageID, error) {
	if node < 0 || node >= nw.Size() {
		return 0, fmt.Errorf("lbcast: node %d out of range [0,%d)", node, nw.Size())
	}
	return nw.bank.Node(node).Bcast(payload)
}

// Busy reports whether the node has a broadcast in flight. It reports
// false for a node outside [0, Size()), which Broadcast rejects.
func (nw *Network) Busy(node int) bool {
	return node >= 0 && node < nw.Size() && nw.bank.Node(node).Active()
}

// Acked reports whether the given broadcast has been acknowledged. It
// reports false for an id Broadcast never returned.
func (nw *Network) Acked(id MessageID) bool {
	src, seq := id.Src(), id.Seq()
	if src < 0 || src >= nw.Size() || seq < 1 {
		return false
	}
	nw.ackMu.Lock()
	defer nw.ackMu.Unlock()
	return seq <= int(nw.ackedSeq[src])
}

// Round returns the number of executed rounds.
func (nw *Network) Round() int { return nw.engine.Round() }

// Step executes one synchronous round.
func (nw *Network) Step() { nw.engine.Step() }

// Run executes the given number of rounds.
func (nw *Network) Run(rounds int) { nw.engine.Run(rounds) }

// RunUntilAck runs until the broadcast is acknowledged, at most t_ack
// rounds plus one phase past the current round (the deterministic
// deadline), and reports whether the ack arrived. It runs no round for an
// id that is already acked (true) or that is not its source's outstanding
// broadcast (false): every id Broadcast returned is one or the other, so
// an id it never returned gives false at once.
func (nw *Network) RunUntilAck(id MessageID) bool {
	if !nw.Acked(id) && !nw.outstanding(id) {
		return false
	}
	deadline := nw.engine.Round() + nw.params.TAckBound() + nw.params.PhaseLen()
	for nw.engine.Round() < deadline && !nw.Acked(id) {
		nw.engine.Step()
	}
	return nw.Acked(id)
}

// outstanding reports whether id is its source's broadcast in flight.
func (nw *Network) outstanding(id MessageID) bool {
	src := id.Src()
	if src < 0 || src >= nw.Size() {
		return false
	}
	m, ok := nw.bank.Node(src).ActiveMessage()
	return ok && m.ID == id
}

// Stats returns aggregate channel statistics for the executed rounds.
func (nw *Network) Stats() (transmissions, deliveries, collisions int) {
	tr := nw.engine.Trace()
	return tr.Transmissions, tr.Deliveries, tr.Collisions
}
