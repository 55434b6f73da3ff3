package churn

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/lbspec"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// soakFingerprint is the golden execution fingerprint of the soak run:
// aggregate counters plus a positional checksum of every trace event, the
// same shape core's TestGoldenExecution pins for the churn-free engine.
type soakFingerprint struct {
	Rounds        int
	Events        int
	Transmissions int
	Deliveries    int
	Collisions    int
	Checksum      uint64
}

// fingerprint reduces a trace to its soak fingerprint.
func fingerprint(tr *sim.Trace) soakFingerprint {
	var checksum uint64
	i := 0
	for ev := range tr.Events() {
		checksum = checksum*1099511628211 ^
			uint64(ev.Round)<<32 ^ uint64(ev.Node)<<16 ^ uint64(ev.Kind)<<8 ^
			uint64(int64(ev.From)) ^ uint64(i)
		i++
	}
	return soakFingerprint{
		Rounds:        tr.RoundsRun,
		Events:        tr.Len(),
		Transmissions: tr.Transmissions,
		Deliveries:    tr.Deliveries,
		Collisions:    tr.Collisions,
		Checksum:      checksum,
	}
}

// soakWant pins the soak execution. Reproducibility under churn is the
// whole point of the deterministic fault layer: a fixed (topology, plan,
// seed) must replay forever, on every driver and worker count. If an
// intentional change to the RNG streams, the patch order or the engine
// alters this, update the pinned values and call it out in the change
// description.
var soakWant = soakFingerprint{
	Rounds:        10000,
	Events:        274356,
	Transmissions: 226382,
	Deliveries:    274356,
	Collisions:    722368,
	Checksum:      1245244758641624811,
}

// soakPlan compiles the soak's fault schedule: 10⁴ rounds of memoryless
// crash/recover and leave/join churn over 150 nodes, three nodes starting
// outside the network, plus two region-fade epochs.
func soakPlan(t testing.TB, d *dualgraph.Dual) *Plan {
	t.Helper()
	plan, err := Poisson(PoissonConfig{
		N: d.N(), Rounds: 10_000, Seed: 17,
		CrashRate: 0.001, MeanDowntime: 60,
		LeaveRate: 0.0002, MeanAbsence: 150,
		InitialAbsent: []int{5, 50, 95},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan.Fades = []Fade{
		{Start: 2_000, End: 2_500, Regions: []geo.RegionID{
			geo.RegionOf(d.Emb[10]), geo.RegionOf(d.Emb[70])}},
		{Start: 6_000, End: 6_800, Regions: []geo.RegionID{
			geo.RegionOf(d.Emb[30])}},
	}
	if err := plan.Validate(d.N()); err != nil {
		t.Fatal(err)
	}
	return plan
}

// soakRun executes the soak configuration once on the given driver. Every
// run rebuilds the topology from scratch: patches mutate the dual in
// place, so runs must not share one.
func soakRun(t testing.TB, driver sim.Driver, workers int) soakFingerprint {
	t.Helper()
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	plan := soakPlan(t, d)
	procs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = &relayProc{base: 0.08}
	}
	fade, err := NewFadeScheduler(sched.NewRandom(0.5, 3), d, plan.Fades)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(InjectorConfig{
		Plan: plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
		Policy: dualgraph.GreyUnreliable,
		Restart: func(u int) sim.Process {
			procs[u] = &relayProc{base: 0.08}
			return procs[u]
		},
		Fade: fade,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Detach(); err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Dual: d, Procs: procs, Sched: fade, Env: inj, Seed: 8,
		Driver: driver, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inj.Attach(eng)
	eng.Run(10_000)
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("dual graph invalid after 10k churned rounds: %v", err)
	}
	return fingerprint(eng.Trace())
}

// TestChurnSoak is the CI soak: 10⁴ rounds of Poisson churn — crashes,
// recoveries, leaves, joins and region fades all active — must reproduce
// the pinned golden fingerprint on the sequential driver and on the worker
// pool at 1 and 4 workers. Run under -race this also exercises the
// patch/refresh paths against the parallel scatter and sharded resolver.
func TestChurnSoak(t *testing.T) {
	seq := soakRun(t, sim.DriverSequential, 0)
	if seq != soakWant {
		t.Errorf("sequential soak fingerprint changed:\n got  %+v\n want %+v\n"+
			"(if this change is intentional, update soakWant and explain why)", seq, soakWant)
	}
	for _, workers := range []int{1, 4} {
		if got := soakRun(t, sim.DriverWorkerPool, workers); got != seq {
			t.Errorf("worker-pool(%d) soak diverged from sequential:\n got  %+v\n want %+v",
				workers, got, seq)
		}
	}
}

// soakRunMonitored executes the identical soak configuration with the
// online invariant monitor riding along (lbspec.Monitor as the injector's
// inner environment, lifecycle hooks wired). The workload's relayProc is
// deliberately not spec-conformant (it emits EvHear with a zero MsgID and
// never broadcasts), so the monitor is expected to flag observations — what
// this soak pins is that observing changes nothing: the fingerprint must be
// byte-identical to the unmonitored run.
func soakRunMonitored(t testing.TB, driver sim.Driver, workers int) (soakFingerprint, int) {
	t.Helper()
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	plan := soakPlan(t, d)
	procs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = &relayProc{base: 0.08}
	}
	tr := &sim.Trace{}
	mon, err := lbspec.NewMonitor(lbspec.MonitorConfig{
		Dual: d, Trace: tr, TAck: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	fade, err := NewFadeScheduler(sched.NewRandom(0.5, 3), d, plan.Fades)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(InjectorConfig{
		Plan: plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
		Policy: dualgraph.GreyUnreliable,
		Restart: func(u int) sim.Process {
			procs[u] = &relayProc{base: 0.08}
			return procs[u]
		},
		Fade:       fade,
		Inner:      mon,
		OnTopology: mon.TopologyPatched,
		OnDown:     mon.NodeDown,
		OnUp:       mon.NodeRestarted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Detach(); err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Dual: d, Procs: procs, Sched: fade, Env: inj, Seed: 8,
		Driver: driver, Workers: workers, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	inj.Attach(eng)
	eng.Run(10_000)
	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	return fingerprint(eng.Trace()), mon.TotalViolations()
}

// TestChurnSoakMonitored is the monitored soak: the exact soak execution
// with lbspec.Monitor attached. The golden fingerprint must hold unchanged
// (the monitor is a pure observer), the monitor must actually observe the
// workload (relayProc's zero-MsgID hears are flagged), and its verdict must
// be identical across drivers.
func TestChurnSoakMonitored(t *testing.T) {
	seq, seqViol := soakRunMonitored(t, sim.DriverSequential, 0)
	if seq != soakWant {
		t.Errorf("monitored soak perturbed the execution:\n got  %+v\n want %+v", seq, soakWant)
	}
	if seqViol == 0 {
		t.Error("monitor observed nothing: relayProc's non-conformant hears should be flagged")
	}
	pool, poolViol := soakRunMonitored(t, sim.DriverWorkerPool, 4)
	if pool != seq {
		t.Errorf("monitored worker-pool soak diverged:\n got  %+v\n want %+v", pool, seq)
	}
	if poolViol != seqViol {
		t.Errorf("monitor verdict is driver-dependent: sequential %d, pool %d", seqViol, poolViol)
	}
}
