package churn

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// BenchmarkChurnRound measures the per-round cost of the engine with the
// full fault layer active: the soak topology (150 nodes) under Poisson
// crash/recover and leave/join churn plus fade epochs, so every iteration
// pays for event application, topology patches, mask rebuilds and scheduler
// wrapping on top of the base scatter. Compare against BenchmarkNetworkRound
// for the fault layer's overhead; the CI regression gate tracks it.
func BenchmarkChurnRound(b *testing.B) {
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		b.Fatal(err)
	}
	rounds := b.N
	plan, err := Poisson(PoissonConfig{
		N: d.N(), Rounds: rounds, Seed: 17,
		CrashRate: 0.001, MeanDowntime: 60,
		LeaveRate: 0.0002, MeanAbsence: 150,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rounds >= 100 {
		plan.Fades = []Fade{{Start: rounds / 4, End: rounds / 2, Regions: []geo.RegionID{
			geo.RegionOf(d.Emb[10]), geo.RegionOf(d.Emb[70])}}}
	}
	procs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = &relayProc{base: 0.08}
	}
	fade, err := NewFadeScheduler(sched.NewRandom(0.5, 3), d, plan.Fades)
	if err != nil {
		b.Fatal(err)
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
		b.Fatal(err)
	}
	if err := inj.Detach(); err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: fade, Env: inj, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	inj.Attach(eng)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(rounds)
	b.StopTimer()
	if err := inj.Err(); err != nil {
		b.Fatal(err)
	}
}
