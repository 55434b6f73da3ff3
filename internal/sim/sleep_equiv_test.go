package sim_test

// The sleep contract against the services that use it: core.AckWindow
// lives in package core, which imports sim, so this test is an external
// test package.

import (
	"fmt"
	"testing"

	"lbcast/internal/baseline"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/sinr"
	"lbcast/internal/xrand"
)

// insomniac hides the engine's sleep flag from the service it wraps: Init
// hands the service a copy of its NodeEnv built by hand, on which Sleep does
// nothing, so the engine steps the node every round.
type insomniac struct{ core.Service }

func (w insomniac) Init(env *sim.NodeEnv) {
	w.Service.Init(&sim.NodeEnv{ID: env.ID, Delta: env.Delta, DeltaPrime: env.DeltaPrime,
		R: env.R, Rng: env.Rng, Rec: env.Rec})
}

// counted counts the engine's Transmit calls on one node.
type counted struct {
	core.Service
	calls *int
}

func (c counted) Transmit(t int) (any, bool) {
	*c.calls++
	return c.Service.Transmit(t)
}

// TestSleepingAckWindowTraceEquivalence runs AckWindow services (decay and
// both contention strategies over the dual graph, the SINR layer over its
// reception model) with every tenth node a saturated sender, so most nodes
// sleep most rounds. Sleeping runs on the sequential driver and on the
// worker pool at 1, 2 and 7 workers must give the trace of a run in which
// no node sleeps, event for event, while skipping most Transmit calls.
func TestSleepingAckWindowTraceEquivalence(t *testing.T) {
	const rounds = 400
	d, err := dualgraph.RandomGeometric(120, 5, 5, 1.7, dualgraph.GreyUnreliable, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var senders []int
	for u := 0; u < d.N(); u += 10 {
		senders = append(senders, u)
	}
	for _, c := range []struct {
		name string
		svc  func(u int) core.Service
		sinr bool
	}{
		{"dualgraph", func(u int) core.Service {
			switch u % 3 {
			case 0:
				return baseline.NewDecay(baseline.DecayParams{Delta: d.Delta(), AckRounds: 40})
			case 1:
				return baseline.NewContention(baseline.ContentionParams{DeltaPrime: d.DeltaPrime(),
					Strategy: baseline.StrategyUniform, AckRounds: 60})
			default:
				return baseline.NewContention(baseline.ContentionParams{DeltaPrime: d.DeltaPrime(),
					Strategy: baseline.StrategyCycling, AckRounds: 50})
			}
		}, false},
		{"sinr", func(int) core.Service {
			return sinr.NewLocalBcast(sinr.LayerParams{Delta: d.DeltaPrime(), AckRounds: 60})
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(sleep bool, driver sim.Driver, workers int) (*sim.Trace, int) {
				calls := make([]int, d.N())
				svcs := make([]core.Service, d.N())
				procs := make([]sim.Process, d.N())
				for u := range svcs {
					svcs[u] = c.svc(u)
					procs[u] = counted{Service: svcs[u], calls: &calls[u]}
					if !sleep {
						procs[u] = insomniac{procs[u].(core.Service)}
					}
				}
				cfg := sim.Config{Dual: d, Procs: procs, Env: core.NewSaturatingEnv(svcs, senders),
					Seed: 99, Driver: driver, Workers: workers}
				if c.sinr {
					cfg.Reception = model
				} else {
					cfg.Sched = sched.NewRandom(0.4, 21)
				}
				e, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				e.Run(rounds)
				total := 0
				for _, n := range calls {
					total += n
				}
				return e.Trace(), total
			}
			ref, awakeCalls := run(false, sim.DriverSequential, 0)
			if len(ref.ByKind(sim.EvAck)) == 0 || len(ref.ByKind(sim.EvRecv)) == 0 {
				t.Fatal("reference run is degenerate: no ack or no recv")
			}
			if awakeCalls != d.N()*rounds {
				t.Fatalf("reference run made %d Transmit calls, want %d", awakeCalls, d.N()*rounds)
			}
			for _, w := range []struct {
				driver  sim.Driver
				workers int
			}{{sim.DriverSequential, 0}, {sim.DriverWorkerPool, 1}, {sim.DriverWorkerPool, 2}, {sim.DriverWorkerPool, 7}} {
				got, calls := run(true, w.driver, w.workers)
				if calls*4 > awakeCalls {
					t.Errorf("driver %d workers %d: %d of %d Transmit calls made; sleeping nodes were stepped",
						w.driver, w.workers, calls, awakeCalls)
				}
				if diff := traceDiff(got, ref); diff != "" {
					t.Errorf("driver %d workers %d: %s", w.driver, w.workers, diff)
				}
			}
		})
	}
}

// traceDiff describes the first difference between two traces' counters and
// events, or returns "".
func traceDiff(got, ref *sim.Trace) string {
	if got.Transmissions != ref.Transmissions || got.Deliveries != ref.Deliveries ||
		got.Collisions != ref.Collisions || got.Len() != ref.Len() {
		return fmt.Sprintf("counters {tx %d del %d col %d events %d}, want {tx %d del %d col %d events %d}",
			got.Transmissions, got.Deliveries, got.Collisions, got.Len(),
			ref.Transmissions, ref.Deliveries, ref.Collisions, ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		if got.At(i) != ref.At(i) {
			return fmt.Sprintf("event %d is %+v, want %+v", i, got.At(i), ref.At(i))
		}
	}
	return ""
}
