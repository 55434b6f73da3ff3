package amac

import (
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// buildDiscovery assembles LBAlg + Discovery over a dual graph.
func buildDiscovery(t testing.TB, d *dualgraph.Dual, beacons int, seed uint64) (*sim.Engine, *Discovery, core.Params) {
	t.Helper()
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]Layer, d.N())
	procs := make([]sim.Process, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		alg.RecordHears = false
		layers[u] = NewAdapter(alg, FromLBParams(p))
		procs[u] = alg
	}
	disc := NewDiscovery(layers, beacons)
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.Random{P: 0.5, Seed: seed}, Env: disc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e, disc, p
}

func TestDiscoveryCluster(t *testing.T) {
	rng := xrand.New(1)
	d, err := dualgraph.SingleHopCluster(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, disc, p := buildDiscovery(t, d, 2, 2)
	budget := 3 * 2 * (p.TAckBound() + p.PhaseLen())
	for r := 0; r < budget && !disc.Done(); r++ {
		e.Step()
	}
	if !disc.Done() {
		t.Fatal("discovery did not finish its beacon budget")
	}
	// With two beacons at ε=¼, missing a reliable neighbor happens with
	// probability ≤ 1/16 per pair; on a 6-clique demand near-full discovery.
	missing := 0
	for u := 0; u < d.N(); u++ {
		for v := 0; v < d.N(); v++ {
			if u != v && !disc.Knows(u, v) {
				missing++
			}
		}
	}
	if missing > 4 {
		t.Errorf("%d of %d neighbor relations undiscovered", missing, d.N()*(d.N()-1))
	}
}

func TestDiscoveryNoFalsePositives(t *testing.T) {
	// Two isolated cliques with unreliable links excluded: no node may
	// discover a node from the other clique (validity).
	rng := xrand.New(3)
	d, err := dualgraph.TwoTierClusters(2, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]Layer, d.N())
	procs := make([]sim.Process, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		alg.RecordHears = false
		layers[u] = NewAdapter(alg, FromLBParams(p))
		procs[u] = alg
	}
	disc := NewDiscovery(layers, 1)
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.Never{}, Env: disc, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2 * (p.TAckBound() + p.PhaseLen()))
	for u := 0; u < d.N(); u++ {
		for _, v := range disc.Neighbors(u) {
			if u/4 != v/4 {
				t.Errorf("node %d discovered %d across an excluded unreliable link", u, v)
			}
			if v == u {
				t.Errorf("node %d discovered itself", u)
			}
		}
	}
}

func TestDiscoveryNeighborsSorted(t *testing.T) {
	rng := xrand.New(5)
	d, err := dualgraph.SingleHopCluster(5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, disc, p := buildDiscovery(t, d, 1, 6)
	e.Run(2 * (p.TAckBound() + p.PhaseLen()))
	for u := 0; u < d.N(); u++ {
		nbrs := disc.Neighbors(u)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("Neighbors(%d) = %v not sorted/unique", u, nbrs)
			}
		}
	}
}

func TestDiscoveryBeaconFloor(t *testing.T) {
	if NewDiscovery(nil, 0).beacons != 1 {
		t.Error("beacon floor not applied")
	}
}
