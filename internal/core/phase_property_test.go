package core

import (
	"math"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// airSniffer wraps the engine by observing a full execution through a probe
// process at an extra isolated vertex... Simpler: we inspect on-air traffic
// by re-running Transmit decisions through a recording wrapper process.
type sniffedTx struct {
	round   int
	payload any
}

// recordingLB wraps an LBAlg to log what it puts on the air.
type recordingLB struct {
	*LBAlg
	log *[]sniffedTx
}

func (r *recordingLB) Transmit(t int) (any, bool) {
	payload, tx := r.LBAlg.Transmit(t)
	if tx {
		*r.log = append(*r.log, sniffedTx{round: t, payload: payload})
	}
	return payload, tx
}

// TestPhaseTrafficSeparation is the phase-structure invariant: during
// preamble rounds only seed agreement messages are on the air; during body
// rounds only data messages. The two protocols can never collide with each
// other because the phase boundaries are globally synchronised.
func TestPhaseTrafficSeparation(t *testing.T) {
	rng := xrand.New(41)
	d, err := dualgraph.SingleHopCluster(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var air []sniffedTx
	procs := make([]*LBAlg, d.N())
	simProcs := make([]sim.Process, d.N())
	svcs := make([]Service, d.N())
	plan := NewPhasePlan(p)
	for u := range procs {
		procs[u] = NewLBAlgWithPlan(plan)
		simProcs[u] = &recordingLB{LBAlg: procs[u], log: &air}
		svcs[u] = procs[u]
	}
	env := NewSaturatingEnv(svcs, []int{0, 1, 2})
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: sched.Random{P: 0.5, Seed: 5},
		Env: env, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3 * p.PhaseLen())

	if len(air) == 0 {
		t.Fatal("no traffic recorded")
	}
	seedMsgs, dataMsgs := 0, 0
	for _, tx := range air {
		preamble := (tx.round-1)%p.PhaseLen() < p.Ts
		switch tx.payload.(type) {
		case *seedagree.Msg:
			seedMsgs++
			if !preamble {
				t.Fatalf("seed message on the air in body round %d", tx.round)
			}
		case DataMsg:
			dataMsgs++
			if preamble {
				t.Fatalf("data message on the air in preamble round %d", tx.round)
			}
		default:
			t.Fatalf("unknown payload type %T on the air", tx.payload)
		}
	}
	if seedMsgs == 0 || dataMsgs == 0 {
		t.Errorf("expected both traffic classes, got %d seed and %d data", seedMsgs, dataMsgs)
	}
}

// TestSenderSilentWhileReceiving: nodes in the receiving state must never
// put data on the air during body rounds.
func TestSenderSilentWhileReceiving(t *testing.T) {
	rng := xrand.New(43)
	d, err := dualgraph.SingleHopCluster(5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var air []sniffedTx
	procs := make([]sim.Process, d.N())
	plan := NewPhasePlan(p)
	for u := range procs {
		alg := NewLBAlgWithPlan(plan)
		procs[u] = &recordingLB{LBAlg: alg, log: &air}
	}
	// No environment: nobody ever gets a bcast input.
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2 * p.PhaseLen())
	for _, tx := range air {
		if _, isData := tx.payload.(DataMsg); isData {
			t.Fatalf("idle node transmitted data in round %d", tx.round)
		}
	}
}

// TestParticipationRateMatchesFormula: over many body rounds, a lone
// sending group's participation frequency — the share of non-zero decoded
// coins — must match 2^{-K1}.
func TestParticipationRateMatchesFormula(t *testing.T) {
	p := testParams(t, 16, 16, 0.1)
	l := NewLBAlgWithPlan(NewPhasePlan(p))
	l.Init(&sim.NodeEnv{ID: 0, Delta: 16, DeltaPrime: 16, R: 1, Rng: xrand.New(3), Rec: nopRec{}})

	const phases = 400
	participations := 0
	src := xrand.New(9)
	for ph := 0; ph < phases; ph++ {
		commitDirect(l, src.DrawSeed(p.Kappa))
		for _, b := range l.coins.b {
			if b != 0 {
				participations++
			}
		}
	}
	total := phases * p.Tprog
	got := float64(participations) / float64(total)
	want := math.Pow(2, -float64(p.K1))
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("participation rate %v, want ≈ %v (2^-K1)", got, want)
	}
}
