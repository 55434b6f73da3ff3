package world

import (
	"fmt"
	"math"
	"runtime"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// Topology is the common ground a World's policies run on: one dual graph
// with its derived degree bounds, and the (seed, ε) every policy's
// parameters come from. The Dual here is the pristine reference — runs
// that mutate the graph (churn) give each policy engine its own Clone and
// keep reading reliability neighborhoods from this one.
type Topology struct {
	Dual       *dualgraph.Dual
	Delta      int
	DeltaPrime int
	// Eps sizes every policy's acknowledgement window.
	Eps float64
	// Seed is the experiment seed the topology (and every policy's derived
	// randomness, e.g. the sinr-pernode power spread) came from.
	Seed uint64

	// clone rebuilds a structurally identical Dual from the generator
	// parameters; nil for topologies built from a raw Dual.
	clone func() (*dualgraph.Dual, error)
}

// NewSweepTopology builds the constant-density random-geometric instance
// (the PR 2 sweep family: side max(4, √(n/4)), r = 1.5, grey-zone links
// unreliable) that every comparison experiment shares.
func NewSweepTopology(n int, seed uint64, eps float64) (*Topology, error) {
	build := func() (*dualgraph.Dual, error) {
		side := math.Max(4, math.Sqrt(float64(n)/4))
		return dualgraph.RandomGeometric(n, side, side, 1.5, dualgraph.GreyUnreliable, xrand.New(seed))
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	return &Topology{
		Dual: d, Delta: d.Delta(), DeltaPrime: d.DeltaPrime(),
		Eps: eps, Seed: seed, clone: build,
	}, nil
}

// Clone rebuilds a structurally identical private Dual from the topology's
// generator parameters (same seed → same placement, same edges), for runs
// whose engines patch the graph in place.
func (t *Topology) Clone() (*dualgraph.Dual, error) {
	if t.clone == nil {
		return nil, fmt.Errorf("world: topology has no clone generator")
	}
	return t.clone()
}

// Instance is one policy instantiated over a topology: everything a run
// needs beyond the engine configuration the caller owns.
type Instance struct {
	// AckWindow is the policy's acknowledgement window in rounds — the
	// budget unit of every matrix (shared windows for E-COMPARE/E-CHURN,
	// per-policy utilisation normalisation for E-LOAD).
	AckWindow int
	// Reception, when non-nil, is the reception model replacing the
	// dual-graph scatter. Dual-graph policies leave it nil; their
	// scheduler requirement (the oblivious random½ link scheduler) is
	// applied by Channel.
	Reception sim.ReceptionModel
	// Neighbors maps a source node to the neighbor set its broadcasts must
	// reach for the reliability metric: reliable (G) neighbors under the
	// dual-graph model, isolation-range neighbors under SINR. Lists are
	// ascending; lazily built variants are not safe for concurrent use and
	// belong to the sequential summarize phase.
	Neighbors func(src int) []int32
	// NewService builds node u's protocol instance (also the churn restart
	// factory).
	NewService func(u int) core.Service
	// NewBank, when non-nil, builds the protocol state of n nodes as one
	// state bank that records the events Summarize reads: the same
	// executions as n NewService instances, stepped as columns. Engines
	// that restart nodes (churn) cannot run a bank and use NewService.
	NewBank func(n int) *core.NodeStateBank
}

// Services builds the protocol instances of one engine's n nodes: the
// handles of a fresh NewBank when the policy has one, NewService instances
// otherwise. procs is their Config.Procs; bank, nil without NewBank, is
// the Config.Bank.
func (inst *Instance) Services(n int) (svcs []core.Service, procs []sim.Process, bank sim.ProcessBank) {
	svcs = make([]core.Service, n)
	procs = make([]sim.Process, n)
	if inst.NewBank != nil {
		bk := inst.NewBank(n)
		for u := range svcs {
			svcs[u] = bk.Node(u)
			procs[u] = svcs[u]
		}
		return svcs, procs, bk
	}
	for u := range svcs {
		svcs[u] = inst.NewService(u)
		procs[u] = svcs[u]
	}
	return svcs, procs, nil
}

// Channel applies the instance's physical-layer requirement to an engine
// configuration: the reception model when the policy carries one, otherwise
// the oblivious random½ link scheduler seeded with schedSeed.
func (inst *Instance) Channel(cfg *sim.Config, schedSeed uint64) {
	if inst.Reception != nil {
		cfg.Reception = inst.Reception
	} else {
		cfg.Sched = sched.NewRandom(0.5, schedSeed)
	}
}

// EngineSeed derives policy i's engine seed from the experiment seed. The
// stride keeps different policies' per-node randomness streams disjoint
// while staying a pure function of (seed, selection index), which is what
// pins every matrix row to its pre-World fingerprint.
func EngineSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1_000_003 }

// World runs one incarnation of every selected policy on a common topology
// under one shared clock. Engine construction and summarizing run
// sequentially in selection order; the engines themselves run concurrently
// on sim.RunFleet, so reports are byte-identical at any worker count.
type World struct {
	Top      *Topology
	Policies []Policy
	// Instances holds the per-topology instantiation of each policy,
	// index-aligned with Policies.
	Instances []*Instance
	// Workers bounds how many policy engines run concurrently (≤ 0 means
	// GOMAXPROCS). 1 degenerates to the sequential loop.
	Workers int
}

// New instantiates every selected policy over the topology.
func New(top *Topology, policies []Policy, workers int) (*World, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("world: no policies selected")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := &World{Top: top, Policies: policies, Workers: workers}
	for _, p := range policies {
		inst, err := p.Instantiate(top)
		if err != nil {
			return nil, fmt.Errorf("world: instantiate %s: %w", p.Name, err)
		}
		w.Instances = append(w.Instances, inst)
	}
	return w, nil
}

// Window returns the shared round budget of a lockstep run: two full ack
// cycles of the slowest selected policy plus slack, capped so outlier
// parameterisations stay affordable.
func (w *World) Window(cap int) int {
	rounds := 0
	for _, inst := range w.Instances {
		if b := 2*inst.AckWindow + 64; b > rounds {
			rounds = b
		}
	}
	if rounds > cap {
		rounds = cap
	}
	return rounds
}

// Senders returns the saturated-sender set every policy drives: nodes
// [0, k) with k = min(4, max(1, n/4)).
func (w *World) Senders() []int {
	n := w.Top.Dual.N()
	k := 4
	if k > n/4 {
		k = max(1, n/4)
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// Hooks describe one lockstep run over a World's selected policies. Every
// hook is called with the selection index i (the engine-seed index), the
// policy and its instance.
type Hooks struct {
	// Rounds returns policy i's round budget (identical across i for the
	// shared-window matrices, per-policy for utilisation-normalised ones).
	Rounds func(i int) int
	// Configure fills policy i's engine configuration. cfg arrives with
	// the world's shared Dual preset; runs that mutate topology replace it
	// with a Topology.Clone. Called sequentially in selection order.
	Configure func(i int, p Policy, inst *Instance, cfg *sim.Config) error
	// Attach, when non-nil, runs after engine construction and before the
	// run (sequentially, in selection order): trace-spill setup, fault
	// injector attachment.
	Attach func(i int, p Policy, e *sim.Engine) error
	// Finish consumes policy i's finished engine, sequentially in
	// selection order — rows land in deterministic order regardless of how
	// the engines were scheduled.
	Finish func(i int, p Policy, inst *Instance, e *sim.Engine) error
}

// Run executes one lockstep run: build every policy's engine (sequential),
// run them all on the fleet pool (concurrent up to Workers), then finish
// each in selection order (sequential). Anything shared between engines —
// the reference Dual, a fault plan — must be read-only during the run;
// per-engine state (services, environments, schedulers, patched duals) is
// built fresh inside Configure, which is what the cross-policy race tests
// pin.
func (w *World) Run(h Hooks) error {
	k := len(w.Policies)
	rounds := make([]int, k)
	for i := range rounds {
		rounds[i] = h.Rounds(i)
	}
	engines, err := sim.NewClones(sim.Config{Dual: w.Top.Dual}, k, func(i int, cfg *sim.Config) error {
		if err := h.Configure(i, w.Policies[i], w.Instances[i], cfg); err != nil {
			return fmt.Errorf("world: %s: %w", w.Policies[i].Name, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if h.Attach != nil {
		for i, e := range engines {
			if err := h.Attach(i, w.Policies[i], e); err != nil {
				return fmt.Errorf("world: %s: %w", w.Policies[i].Name, err)
			}
		}
	}
	sim.RunFleet(w.Workers, engines, rounds)
	for i, e := range engines {
		if err := h.Finish(i, w.Policies[i], w.Instances[i], e); err != nil {
			return fmt.Errorf("world: %s: %w", w.Policies[i].Name, err)
		}
	}
	return nil
}
