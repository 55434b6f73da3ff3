package amac

import (
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// buildFloodNet assembles LBAlg processes with a Flood controller.
func buildFloodNet(t testing.TB, d *dualgraph.Dual, eps float64, seed uint64, s sim.LinkScheduler) (*sim.Engine, *Flood, core.Params) {
	t.Helper()
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), eps)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]Layer, d.N())
	simProcs := make([]sim.Process, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		alg.RecordHears = false // floods only need recv events
		layers[u] = NewAdapter(alg, FromLBParams(p))
		simProcs[u] = alg
	}
	flood := NewFlood(layers)
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: s, Env: flood, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e, flood, p
}

func TestAdapterDelegates(t *testing.T) {
	p, err := core.DeriveParams(2, 2, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	alg := core.NewLBAlgWithPlan(core.NewPhasePlan(p))
	alg.Init(&sim.NodeEnv{ID: 0, Delta: 2, DeltaPrime: 2, R: 1, Rng: xrand.New(1), Rec: discard{}})
	a := NewAdapter(alg, FromLBParams(p))

	if a.Busy() {
		t.Error("fresh adapter busy")
	}
	if _, err := a.Bcast("x"); err != nil {
		t.Fatal(err)
	}
	if !a.Busy() {
		t.Error("adapter not busy after bcast")
	}
	g := a.Guarantees()
	if g.FAck != p.TAckBound() || g.FProg != p.TProgBound() || g.Eps != p.Eps1 {
		t.Errorf("guarantees = %+v", g)
	}
	if g.FAck < g.FProg {
		t.Error("f_ack below f_prog")
	}
}

type discard struct{}

func (discard) Record(sim.Event) {}

func TestFloodSingleNode(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, flood, p := buildFloodNet(t, d, 0.25, 1, nil)
	key, err := flood.Start(0, "hello")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p.TAckBound() + 1)
	if _, ok := flood.delivered[0][key]; !ok {
		t.Error("origin does not hold its own flood")
	}
	if _, done := flood.Complete(key); !done {
		t.Error("singleton flood incomplete")
	}
}

func TestFloodStartValidation(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, flood, _ := buildFloodNet(t, d, 0.25, 1, nil)
	if _, err := flood.Start(-1, nil); err == nil {
		t.Error("negative origin accepted")
	}
	if _, err := flood.Start(5, nil); err == nil {
		t.Error("out-of-range origin accepted")
	}
}

func TestFloodLine(t *testing.T) {
	// Multi-hop: a flood from one end of a 6-node line must cover all
	// nodes, demonstrating global broadcast composed over the layer.
	rng := xrand.New(2)
	d, err := dualgraph.Line(6, 1, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, flood, p := buildFloodNet(t, d, 0.25, 3, sched.Random{P: 0.5, Seed: 4})
	key, err := flood.Start(0, "wave")
	if err != nil {
		t.Fatal(err)
	}
	budget := 6 * 4 * p.PhaseLen()
	for r := 0; r < budget; r++ {
		e.Step()
		if _, done := flood.Complete(key); done {
			break
		}
	}
	round, done := flood.Complete(key)
	if !done {
		t.Fatalf("flood covered %d/%d nodes within %d rounds", flood.Coverage(key), d.N(), budget)
	}
	if lat, ok := flood.Latency(key); !ok || lat <= 0 || lat > round {
		t.Errorf("latency = %d, %v (completed at %d)", lat, ok, round)
	}
}

func TestFloodTwoTier(t *testing.T) {
	// Inter-cluster links are all unreliable: the flood can only cross when
	// the scheduler includes them. With a random scheduler it must still
	// complete (the adversary is oblivious, not omnipotent).
	rng := xrand.New(5)
	d, err := dualgraph.TwoTierClusters(3, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, flood, p := buildFloodNet(t, d, 0.25, 6, sched.Random{P: 0.7, Seed: 7})
	key, err := flood.Start(0, "crossing")
	if err != nil {
		t.Fatal(err)
	}
	budget := 12 * 4 * p.PhaseLen()
	for r := 0; r < budget && flood.Coverage(key) < d.N(); r++ {
		e.Step()
	}
	if flood.Coverage(key) != d.N() {
		t.Errorf("flood covered %d/%d across unreliable cluster links", flood.Coverage(key), d.N())
	}
}

func TestFloodBlockedWithoutUnreliableLinks(t *testing.T) {
	// Sanity check of the dual graph semantics: with every unreliable link
	// excluded, a two-tier flood cannot escape the origin cluster.
	rng := xrand.New(8)
	d, err := dualgraph.TwoTierClusters(2, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, flood, p := buildFloodNet(t, d, 0.25, 9, sched.Never{})
	key, err := flood.Start(0, "stuck")
	if err != nil {
		t.Fatal(err)
	}
	e.Run(6 * p.PhaseLen())
	if flood.Coverage(key) > 4 {
		t.Errorf("flood escaped an isolated cluster: coverage %d", flood.Coverage(key))
	}
	if _, done := flood.Complete(key); done {
		t.Error("flood reported complete despite isolation")
	}
}

func TestMultiMessageFlood(t *testing.T) {
	// Two concurrent floods from different origins must both complete and
	// be tracked independently.
	rng := xrand.New(10)
	d, err := dualgraph.Line(5, 1, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, flood, p := buildFloodNet(t, d, 0.25, 11, nil)
	k1, err := flood.Start(0, "left")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := flood.Start(4, "right")
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("flood keys collide")
	}
	budget := 5 * 6 * p.PhaseLen()
	for r := 0; r < budget; r++ {
		e.Step()
		_, d1 := flood.Complete(k1)
		_, d2 := flood.Complete(k2)
		if d1 && d2 {
			return
		}
	}
	t.Fatalf("floods incomplete: %d/%d and %d/%d nodes",
		flood.Coverage(k1), d.N(), flood.Coverage(k2), d.N())
}
