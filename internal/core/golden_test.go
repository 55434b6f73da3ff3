package core

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// TestGoldenExecution pins an exact execution fingerprint. Reproducibility
// is a contract of this repository: a fixed (graph, scheduler, seed)
// configuration must produce the identical trace forever. If an intentional
// change to the RNG streams or the algorithm alters this, update the pinned
// values and call it out in the change description.
func TestGoldenExecution(t *testing.T) {
	rng := xrand.New(2024)
	d, err := dualgraph.SingleHopCluster(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}

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
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: sched.Random{P: 0.5, Seed: 7},
		Env: env, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2 * p.PhaseLen())

	tr := e.Trace()
	// Fingerprint: aggregate counters plus a positional checksum of events.
	var checksum uint64
	i := 0
	for ev := range tr.Events() {
		checksum = checksum*1099511628211 ^
			uint64(ev.Round)<<32 ^ uint64(ev.Node)<<16 ^ uint64(ev.Kind)<<8 ^
			uint64(int64(ev.MsgID)) ^ uint64(i)
		i++
	}

	got := goldenFingerprint{
		Rounds:        tr.RoundsRun,
		Events:        tr.Len(),
		Transmissions: tr.Transmissions,
		Deliveries:    tr.Deliveries,
		Collisions:    tr.Collisions,
		Checksum:      checksum,
	}
	if got != goldenWant {
		t.Errorf("execution fingerprint changed:\n got  %+v\n want %+v\n"+
			"(if this change is intentional, update goldenWant and explain why)", got, goldenWant)
	}
}

type goldenFingerprint struct {
	Rounds        int
	Events        int
	Transmissions int
	Deliveries    int
	Collisions    int
	Checksum      uint64
}

// goldenWant was captured from the current implementation; see
// TestGoldenExecution for the update policy.
var goldenWant = goldenFingerprint{
	Rounds:        548,
	Events:        289,
	Transmissions: 101,
	Deliveries:    511,
	Collisions:    84,
	Checksum:      4874753498864686177,
}
