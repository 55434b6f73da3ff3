package amac

import (
	"fmt"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// buildConsensus assembles LBAlg + Consensus over a dual graph.
func buildConsensus(t testing.TB, d *dualgraph.Dual, initial []any, cycles int, s sim.LinkScheduler, seed uint64) (*sim.Engine, *Consensus, core.Params) {
	t.Helper()
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]Layer, d.N())
	procs := make([]sim.Process, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		layers[u] = NewAdapter(alg, FromLBParams(p))
		procs[u] = alg
	}
	cons, err := NewConsensus(layers, initial, cycles)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: s, Env: cons, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e, cons, p
}

func TestConsensusValidation(t *testing.T) {
	if _, err := NewConsensus(make([]Layer, 2), []any{1}, 1); err == nil {
		t.Error("mismatched initial values accepted")
	}
}

func TestConsensusCluster(t *testing.T) {
	rng := xrand.New(1)
	d, err := dualgraph.SingleHopCluster(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]any, d.N())
	for u := range initial {
		initial[u] = fmt.Sprintf("v%d", u)
	}
	e, cons, p := buildConsensus(t, d, initial, 2, sched.Random{P: 0.5, Seed: 2}, 3)
	budget := 3 * 2 * (p.TAckBound() + p.PhaseLen())
	for r := 0; r < budget; r++ {
		e.Step()
		if _, done := cons.Done(); done {
			break
		}
	}
	round, done := cons.Done()
	if !done {
		t.Fatal("consensus did not terminate within budget")
	}
	if round <= 0 {
		t.Errorf("Done round = %d", round)
	}
	value, agree := cons.Agreement()
	if !agree {
		t.Fatal("nodes decided different values")
	}
	// Validity: the decision is someone's initial value; with min-id race
	// on a clique it should be node 0's.
	if value != "v0" {
		t.Errorf("decided %v, want v0 (minimum id's value)", value)
	}
	for u := 0; u < d.N(); u++ {
		v, ok := cons.Decision(u)
		if !ok || v != value {
			t.Errorf("node %d decision = %v, %v", u, v, ok)
		}
	}
}

func TestConsensusAgreementAcrossTrials(t *testing.T) {
	rng := xrand.New(4)
	d, err := dualgraph.SingleHopCluster(5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	agreeCount := 0
	const trials = 5
	for trial := uint64(0); trial < trials; trial++ {
		initial := make([]any, d.N())
		for u := range initial {
			initial[u] = u * 10
		}
		e, cons, p := buildConsensus(t, d, initial, 2, sched.Random{P: 0.5, Seed: trial}, 100+trial)
		budget := 3 * 2 * (p.TAckBound() + p.PhaseLen())
		for r := 0; r < budget; r++ {
			e.Step()
			if _, done := cons.Done(); done {
				break
			}
		}
		if _, done := cons.Done(); !done {
			t.Fatalf("trial %d: no termination", trial)
		}
		if _, agree := cons.Agreement(); agree {
			agreeCount++
		}
	}
	if agreeCount < trials-1 {
		t.Errorf("agreement in %d/%d trials", agreeCount, trials)
	}
}

func TestConsensusSingleNode(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, cons, p := buildConsensus(t, d, []any{"solo"}, 1, nil, 5)
	e.Run(2 * (p.TAckBound() + p.PhaseLen()))
	v, ok := cons.Decision(0)
	if !ok || v != "solo" {
		t.Errorf("Decision = %v, %v", v, ok)
	}
	if _, agree := cons.Agreement(); !agree {
		t.Error("singleton disagrees with itself")
	}
}

func TestConsensusUndecidedAccessors(t *testing.T) {
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cons, _ := buildConsensus(t, d, []any{1, 2}, 1, nil, 6)
	if _, ok := cons.Decision(0); ok {
		t.Error("decision available before running")
	}
	if _, done := cons.Done(); done {
		t.Error("done before running")
	}
	if _, agree := cons.Agreement(); agree {
		t.Error("agreement with zero decided nodes")
	}
}
