package world

import (
	"errors"
	"reflect"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/lbspec"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

func saturating(senders []int) func([]core.Service) (sim.Environment, error) {
	return func(svcs []core.Service) (sim.Environment, error) {
		return core.NewSaturatingEnv(svcs, senders), nil
	}
}

func TestNewLBNetworkValidation(t *testing.T) {
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(2, 2, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLBNetwork(sim.Config{}, p, nil, true); err == nil {
		t.Error("accepted a configuration without a dual graph")
	}
	if _, err := NewLBNetwork(sim.Config{Dual: d, Seed: 1}, p, nil, true); err != nil {
		t.Fatalf("nil scheduler and environment: %v", err)
	}
	// The monitor shares the engine's trace: node 0 saturating for one
	// phase gives node 1 exactly one progress opportunity.
	net, err := NewLBNetwork(sim.Config{Dual: d, Seed: 1}, p, saturating([]int{0}), true)
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(p.PhaseLen())
	rep := net.Mon.Report()
	if err := rep.Err(); err != nil {
		t.Errorf("one saturated phase: %v", err)
	}
	if rep.ProgressOpportunities != 1 {
		t.Errorf("progress opportunities = %d, want 1", rep.ProgressOpportunities)
	}
}

// TestNewLBNetworkEnvError pins that an environment that cannot be built
// fails the construction with its own error.
func TestNewLBNetworkEnvError(t *testing.T) {
	d, err := dualgraph.SingleHopCluster(4, 1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	bad := errors.New("no environment")
	for _, monitored := range []bool{false, true} {
		_, err := NewLBNetwork(sim.Config{Dual: d}, p, func([]core.Service) (sim.Environment, error) {
			return nil, bad
		}, monitored)
		if !errors.Is(err, bad) {
			t.Errorf("monitored=%v: error %v, want the environment's", monitored, err)
		}
	}
}

// TestNewLBNetworkUnmonitored pins that an unmonitored run keeps no event
// history while its callbacks still report every recv and ack.
func TestNewLBNetworkUnmonitored(t *testing.T) {
	d, err := dualgraph.SingleHopCluster(4, 1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var recvs, acks int
	sends := []core.Send{{Node: 0, Round: 1, Payload: "a"}, {Node: 1, Round: 1, Payload: "b"}}
	net, err := NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, 1), Seed: 1}, p,
		func(svcs []core.Service) (sim.Environment, error) {
			for _, svc := range svcs {
				svc.SetOnRecv(func(core.Message, int) { recvs++ })
				svc.SetOnAck(func(core.Message) { acks++ })
			}
			return core.NewSingleShotEnv(svcs, sends), nil
		}, false)
	if err != nil {
		t.Fatal(err)
	}
	if net.Mon != nil {
		t.Error("an unmonitored run has a monitor")
	}
	net.Engine.Run(p.TAckBound() + p.PhaseLen())
	if acks != len(sends) || recvs == 0 {
		t.Errorf("callbacks: %d acks, %d recvs; want %d acks and some recvs", acks, recvs, len(sends))
	}
	tr := net.Engine.Trace()
	if tr.Len() != 0 {
		t.Errorf("unmonitored run recorded %d events", tr.Len())
	}
	if tr.Transmissions == 0 {
		t.Error("no transmissions counted")
	}
}

// TestNewLBNetworkMatchesPerNode is the constructor's oracle: a monitored
// run on a small two-tier network gives the event stream, channel counters
// and Report of the same run assembled from per-node LBAlg processes.
func TestNewLBNetworkMatchesPerNode(t *testing.T) {
	d, err := dualgraph.TwoTierClusters(3, 4, 2, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	senders := []int{0, 4, 8}
	rounds := p.TAckBound() + 2*p.PhaseLen()
	const seed = 7

	net, err := NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed}, p,
		saturating(senders), true)
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(rounds)

	plan := core.NewPhasePlan(p)
	svcs := make([]core.Service, d.N())
	procs := make([]sim.Process, d.N())
	for u := range svcs {
		svcs[u] = core.NewLBAlgWithPlan(plan)
		procs[u] = svcs[u]
	}
	tr := &sim.Trace{}
	mon, err := lbspec.NewMonitor(lbspec.MonitorConfig{Dual: d, Trace: tr,
		TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: core.NewSaturatingEnv(svcs, senders)})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.5, seed), Env: mon, Trace: tr, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rounds)

	got := net.Engine.Trace()
	if got.Transmissions != tr.Transmissions || got.Deliveries != tr.Deliveries ||
		got.Collisions != tr.Collisions || got.Len() != tr.Len() {
		t.Fatalf("bank {tx %d del %d col %d events %d}, per-node {tx %d del %d col %d events %d}",
			got.Transmissions, got.Deliveries, got.Collisions, got.Len(),
			tr.Transmissions, tr.Deliveries, tr.Collisions, tr.Len())
	}
	if len(tr.ByKind(sim.EvAck)) == 0 || len(tr.ByKind(sim.EvHear)) == 0 {
		t.Fatal("no ack or hear recorded; the comparison is vacuous")
	}
	for i := 0; i < tr.Len(); i++ {
		if got.At(i) != tr.At(i) {
			t.Fatalf("event %d: bank %+v, per-node %+v", i, got.At(i), tr.At(i))
		}
	}
	if a, b := net.Mon.Report(), mon.Report(); !reflect.DeepEqual(a, b) {
		t.Errorf("reports differ:\nbank     %+v\nper-node %+v", a, b)
	}
}
