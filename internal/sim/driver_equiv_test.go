package sim

import (
	"fmt"
	"runtime"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// chattyProc transmits by private coin and records every reception outcome
// into the trace, so that two executions are trace-identical only if every
// per-node reception (source and round) matched exactly. The payload is
// boxed once at Init so benchmarks over this process measure the engine and
// trace paths, not interface conversions.
type chattyProc struct {
	env     *NodeEnv
	p       float64
	payload any
}

func (c *chattyProc) Init(env *NodeEnv) { c.env = env; c.payload = env.ID }

func (c *chattyProc) Transmit(t int) (any, bool) {
	if c.env.Rng.Coin(c.p) {
		return c.payload, true
	}
	return nil, false
}

func (c *chattyProc) Receive(t, from int, payload any, ok bool) {
	if ok {
		c.env.Rec.Record(Event{Round: t, Node: c.env.ID, Kind: EvHear, From: from})
	}
}

// equivSchedulers builds the scheduler matrix for the equivalence tests.
// Adaptive is constructed per run (it is stateful), so it is returned as a
// factory.
func equivSchedulers(t *testing.T, d *dualgraph.Dual) []struct {
	name string
	mk   func() LinkScheduler
} {
	t.Helper()
	return []struct {
		name string
		mk   func() LinkScheduler
	}{
		{"random", func() LinkScheduler { return sched.NewRandom(0.4, 21) }},
		{"random-literal", func() LinkScheduler { return sched.Random{P: 0.4, Seed: 21} }},
		{"always", func() LinkScheduler { return sched.Always{} }},
		{"never", func() LinkScheduler { return sched.Never{} }},
		{"periodic", func() LinkScheduler { return sched.Periodic{Period: 7, OnRounds: 3} }},
		{"anti-decay", func() LinkScheduler { return sched.AntiDecay{CycleLen: 6} }},
		{"adaptive", func() LinkScheduler {
			a, err := sched.NewAdaptive(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	}
}

// tracesEqual reports whether two traces hold identical counters and
// byte-identical event sequences, returning a description of the first
// divergence otherwise.
func tracesEqual(got, ref *Trace) (bool, string) {
	if got.Transmissions != ref.Transmissions || got.Deliveries != ref.Deliveries ||
		got.Collisions != ref.Collisions || got.RoundsRun != ref.RoundsRun {
		return false, fmt.Sprintf("counters diverged: got {tx %d del %d col %d rounds %d}, want {tx %d del %d col %d rounds %d}",
			got.Transmissions, got.Deliveries, got.Collisions, got.RoundsRun,
			ref.Transmissions, ref.Deliveries, ref.Collisions, ref.RoundsRun)
	}
	if got.Len() != ref.Len() {
		return false, fmt.Sprintf("event count diverged: %d vs %d", got.Len(), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		if got.At(i) != ref.At(i) {
			return false, fmt.Sprintf("events diverged at index %d: got %+v, want %+v",
				i, got.At(i), ref.At(i))
		}
	}
	return true, ""
}

// TestDriverTraceEquivalence is the driver-parity contract at full trace
// granularity: DriverSequential and DriverWorkerPool (at worker counts 1, 2,
// 7 and GOMAXPROCS, exercising both the sequential and the sharded parallel
// scatter) must produce identical traces — same events in the same order,
// same aggregate counters — for the same seed and link schedule on a
// nontrivial dual graph. The transmit probability is set
// high enough that most rounds clear the parallel-scatter threshold. Run it
// under -race to also exercise the parallel drivers' synchronisation.
func TestDriverTraceEquivalence(t *testing.T) {
	d, err := dualgraph.RandomGeometric(120, 5, 5, 1.7, dualgraph.GreyUnreliable, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.UnreliableEdgeCount() == 0 || d.G.EdgeCount() == 0 {
		t.Fatal("fixture graph is trivial")
	}

	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}

	for _, sc := range equivSchedulers(t, d) {
		t.Run(sc.name, func(t *testing.T) {
			run := func(driver Driver, workers int) *Trace {
				procs := make([]Process, d.N())
				for u := range procs {
					procs[u] = &chattyProc{p: 0.3}
				}
				e, err := New(Config{Dual: d, Procs: procs, Sched: sc.mk(), Seed: 99,
					Driver: driver, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				e.Run(150)
				e.Close()
				return e.Trace()
			}
			ref := run(DriverSequential, 0)
			if ref.Len() == 0 {
				t.Fatalf("reference run is degenerate: %d events", ref.Len())
			}
			if sc.name != "adaptive" && ref.Deliveries == 0 {
				t.Fatalf("reference run is degenerate: %d deliveries", ref.Deliveries)
			}
			for _, w := range workerCounts {
				got := run(DriverWorkerPool, w)
				if ok, diff := tracesEqual(got, ref); !ok {
					t.Errorf("workerpool(workers=%d) %s", w, diff)
				}
			}
		})
	}
}

// TestParallelScatterMatchesSequentialDense drives the worker-pool driver
// through a dense regime — every node transmitting almost every round over a
// graph with many unreliable edges — so the sharded scatter's merge handles
// heavy collision counts, then checks trace identity against sequential.
func TestParallelScatterMatchesSequentialDense(t *testing.T) {
	d, err := dualgraph.RandomGeometric(200, 6, 6, 2.0, dualgraph.GreyUnreliable, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	run := func(driver Driver, workers int) *Trace {
		procs := make([]Process, d.N())
		for u := range procs {
			procs[u] = &chattyProc{p: 0.9}
		}
		e, err := New(Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.6, 5), Seed: 3,
			Driver: driver, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		e.Run(60)
		return e.Trace()
	}
	ref := run(DriverSequential, 0)
	for _, w := range []int{2, 3, 8} {
		if ok, diff := tracesEqual(run(DriverWorkerPool, w), ref); !ok {
			t.Errorf("dense workerpool(workers=%d) %s", w, diff)
		}
	}
}
