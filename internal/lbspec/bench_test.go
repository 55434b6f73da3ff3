package lbspec

import (
	"testing"

	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// monitoredBenchEngine assembles the BenchmarkChurnRound-class soak
// configuration — 150-node geometric topology, Poisson crash/recover and
// leave/join churn, fade epochs — but with the real protocol as workload
// (LBAlg + saturating senders), so an attached Monitor does genuine span
// accounting. The monitored variant runs in no-retention mode
// (DiscardConsumed), the steady state of the 10⁵⁺-node soaks.
func monitoredBenchEngine(b *testing.B, monitored bool) *sim.Engine {
	b.Helper()
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := churn.Poisson(churn.PoissonConfig{
		N: d.N(), Rounds: 50_000, Seed: 17,
		CrashRate: 0.001, MeanDowntime: 60,
		LeaveRate: 0.0002, MeanAbsence: 150,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan.Fades = []churn.Fade{{Start: 2_000, End: 2_500, Regions: []geo.RegionID{
		geo.RegionOf(d.Emb[10]), geo.RegionOf(d.Emb[70])}}}

	svcs := make([]core.Service, d.N())
	procs := make([]sim.Process, d.N())
	lbPlan := core.NewPhasePlan(p)
	for u := range svcs {
		svcs[u] = core.NewLBAlgWithPlan(lbPlan)
		procs[u] = svcs[u]
	}
	env := core.NewSaturatingEnv(svcs, []int{0, 1, 2, 3})
	tr := &sim.Trace{}

	var inner sim.Environment = env
	var mon *Monitor
	if monitored {
		mon, err = NewMonitor(MonitorConfig{
			Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(),
			Inner: env, DiscardConsumed: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		inner = mon
	}
	fade, err := churn.NewFadeScheduler(sched.NewRandom(0.5, 3), d, plan.Fades)
	if err != nil {
		b.Fatal(err)
	}
	cfg := churn.InjectorConfig{
		Plan: plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
		Policy: dualgraph.GreyUnreliable,
		Restart: func(u int) sim.Process {
			svcs[u] = core.NewLBAlgWithPlan(lbPlan)
			return svcs[u]
		},
		Fade:      fade,
		Inner:     inner,
		OnRestart: func(u int, _ sim.Process) { env.Rearm(u) },
	}
	if monitored {
		cfg.OnTopology = mon.TopologyPatched
		cfg.OnDown = mon.NodeDown
		cfg.OnUp = mon.NodeRestarted
	}
	inj, err := churn.NewInjector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := inj.Detach(); err != nil {
		b.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Dual: d, Procs: procs, Sched: fade, Env: inj, Seed: 8, Trace: tr,
	})
	if err != nil {
		b.Fatal(err)
	}
	inj.Attach(eng)
	// Warm up past the cold start: span pool populated, fades and churn
	// active, trace chunks recycling.
	eng.Run(500)
	return eng
}

// steadyEngine builds the churn-free variant of the soak workload for the
// steady-state allocation guard: without restarts there is no per-event
// protocol-state rebuilding, so any per-round allocation would be the
// monitor's own.
func steadyEngine(tb testing.TB, monitored bool) *sim.Engine {
	tb.Helper()
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2)
	if err != nil {
		tb.Fatal(err)
	}
	svcs := make([]core.Service, d.N())
	procs := make([]sim.Process, d.N())
	lbPlan := core.NewPhasePlan(p)
	for u := range svcs {
		svcs[u] = core.NewLBAlgWithPlan(lbPlan)
		procs[u] = svcs[u]
	}
	env := core.NewSaturatingEnv(svcs, []int{0, 1, 2, 3})
	tr := &sim.Trace{}
	var inner sim.Environment = env
	if monitored {
		mon, err := NewMonitor(MonitorConfig{
			Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(),
			Inner: env, DiscardConsumed: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		inner = mon
	}
	eng, err := sim.New(sim.Config{
		Dual: d, Procs: procs, Sched: sched.NewRandom(0.5, 3), Env: inner,
		Seed: 8, Trace: tr,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng.Run(1_000)
	return eng
}

// TestMonitorSteadyStateAllocs is the acceptance criterion for the online
// monitor's cost model: once warm (span pool populated, per-span reception
// maps grown), a monitored round performs no allocations beyond the
// workload's own — and the workload itself is allocation-free here apart
// from amortized trace-chunk growth (< 0.01/round).
func TestMonitorSteadyStateAllocs(t *testing.T) {
	measure := func(monitored bool) float64 {
		eng := steadyEngine(t, monitored)
		defer eng.Close()
		return testing.AllocsPerRun(400, func() { eng.Step() })
	}
	mon := measure(true)
	un := measure(false)
	t.Logf("allocs/round: monitored %.4f, unmonitored %.4f", mon, un)
	if mon >= 0.5 {
		t.Errorf("monitored steady state allocates %.4f/round, want ~0", mon)
	}
	if mon > un+0.1 {
		t.Errorf("monitor adds %.4f allocs/round over the unmonitored twin", mon-un)
	}
}

// BenchmarkMonitoredRound measures the steady-state per-round cost of the
// churned protocol soak with the online invariant monitor attached. The
// overhead target vs BenchmarkUnmonitoredRound is ≤ 15% with 0 allocs per
// round.
func BenchmarkMonitoredRound(b *testing.B) {
	eng := monitoredBenchEngine(b, true)
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkUnmonitoredRound is the twin without the monitor — the
// denominator of the monitoring-overhead ratio.
func BenchmarkUnmonitoredRound(b *testing.B) {
	eng := monitoredBenchEngine(b, false)
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
