package core

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// TestSeedExhaustionFailsClosed injects an undersized κ and verifies the
// node silently stops transmitting instead of panicking or reusing bits.
func TestSeedExhaustionFailsClosed(t *testing.T) {
	p := testParams(t, 8, 8, 0.1)
	l := NewLBAlgWithPlan(NewPhasePlan(p))
	l.Init(&sim.NodeEnv{ID: 0, Delta: 8, DeltaPrime: 8, R: 1, Rng: xrand.New(1), Rec: nopRec{}})
	l.state = StateSending
	l.pending = &Message{ID: sim.NewMsgID(0, 1)}
	// A seed far too short for even one round's K1 bits: every decoded
	// round fails closed.
	commitDirect(l, xrand.New(2).DrawSeed(1))
	if sent := runBody(l); sent != 0 {
		t.Fatalf("transmitted in %d body rounds with an exhausted seed", sent)
	}
}

// TestNilCommitFailsClosed covers the defensive branch where a body round
// arrives with no committed seed.
func TestNilCommitFailsClosed(t *testing.T) {
	p := testParams(t, 8, 8, 0.1)
	l := NewLBAlgWithPlan(NewPhasePlan(p))
	l.Init(&sim.NodeEnv{ID: 0, Delta: 8, DeltaPrime: 8, R: 1, Rng: xrand.New(1), Rec: nopRec{}})
	l.state = StateSending
	l.pending = &Message{ID: sim.NewMsgID(0, 1)}
	if sent := runBody(l); sent != 0 {
		t.Fatalf("transmitted in %d body rounds without a committed seed", sent)
	}
}

// TestMidPhaseBcastWaitsForBoundary verifies the algorithm's rule that a
// bcast input arriving mid-phase only enters the sending state at the next
// phase boundary.
func TestMidPhaseBcastWaitsForBoundary(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 1, 1, 0.25)
	e, procs := buildLB(t, d, p, nil, nil, 1)

	// Run into the middle of phase 1, then issue the bcast.
	mid := p.PhaseLen() / 2
	e.Run(mid)
	if _, err := procs[0].Bcast("late"); err != nil {
		t.Fatal(err)
	}
	if procs[0].state != StateReceiving {
		t.Fatal("entered sending state mid-phase")
	}
	// Finish phase 1: still receiving through the last round of the phase.
	e.Run(p.PhaseLen() - mid)
	if procs[0].state != StateReceiving {
		t.Fatal("sending before the phase boundary")
	}
	// First round of phase 2: now sending.
	e.Run(1)
	if procs[0].state != StateSending {
		t.Fatal("did not enter sending state at the boundary")
	}
	// The ack must come exactly at the end of Tack further full phases.
	e.Run((p.Tack+1)*p.PhaseLen() - 1)
	acks := e.Trace().ByKind(sim.EvAck)
	if len(acks) != 1 {
		t.Fatalf("acks = %d", len(acks))
	}
	wantRound := (1 + p.Tack) * p.PhaseLen() // end of phase 1+Tack
	if acks[0].Round != wantRound {
		t.Errorf("ack at round %d, want %d", acks[0].Round, wantRound)
	}
}

// TestLBAlgUnderWorkerPool checks engine-driver parity at the protocol
// level: identical traces from the sequential driver and a three-worker
// pool, whose node ranges run concurrently.
func TestLBAlgUnderWorkerPool(t *testing.T) {
	rng := xrand.New(31)
	d, err := dualgraph.SingleHopCluster(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, d.Delta(), d.DeltaPrime(), 0.25)
	run := func(driver sim.Driver, workers int) (int, int) {
		procs := make([]*LBAlg, d.N())
		simProcs := make([]sim.Process, d.N())
		svcs := make([]Service, d.N())
		plan := NewPhasePlan(p)
		for u := range procs {
			procs[u] = NewLBAlgWithPlan(plan)
			simProcs[u] = procs[u]
			svcs[u] = procs[u]
		}
		env := NewSaturatingEnv(svcs, []int{0, 1})
		e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: sched.Random{P: 0.5, Seed: 3},
			Env: env, Seed: 17, Driver: driver, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(2 * p.PhaseLen())
		e.Close()
		return e.Trace().Len(), e.Trace().Deliveries
	}
	seqEvents, seqDel := run(sim.DriverSequential, 0)
	poolEvents, poolDel := run(sim.DriverWorkerPool, 3)
	if seqEvents != poolEvents || seqDel != poolDel {
		t.Errorf("drivers diverged: sequential (%d ev, %d del) vs worker pool (%d ev, %d del)",
			seqEvents, seqDel, poolEvents, poolDel)
	}
}

// TestAdaptiveAgainstLBAlg is the protocol-level starvation check: the
// adaptive adversary plus chattering decoys must block essentially all
// receptions at the target.
func TestAdaptiveAgainstLBAlg(t *testing.T) {
	d, err := dualgraph.StarWithDecoys(6)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, d.Delta(), d.DeltaPrime(), 0.25)
	adaptive, err := sched.NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]sim.Process, d.N())
	plan := NewPhasePlan(p)
	lb0, lb1 := NewLBAlgWithPlan(plan), NewLBAlgWithPlan(plan)
	procs[0], procs[1] = lb0, lb1
	for u := 2; u < d.N(); u++ {
		procs[u] = &alwaysTx{}
	}
	env := NewSaturatingEnv([]Service{lb0, lb1}, []int{1})
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: adaptive, Env: env, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3 * p.PhaseLen())
	for _, ev := range e.Trace().ByKind(sim.EvHear) {
		if ev.Node == 0 {
			t.Fatalf("target heard %v at round %d despite always-transmitting decoys", ev.MsgID, ev.Round)
		}
	}
}

// alwaysTx transmits garbage every round (the strongest decoy).
type alwaysTx struct{ env *sim.NodeEnv }

func (a *alwaysTx) Init(env *sim.NodeEnv)       { a.env = env }
func (a *alwaysTx) Transmit(int) (any, bool)    { return "noise", true }
func (a *alwaysTx) Receive(int, int, any, bool) {}
