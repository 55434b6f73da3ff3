package seedagree

import (
	"math"
	"runtime"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// runSeedAgreement executes SeedAlg on the given dual graph and returns the
// processes after completion.
func runSeedAgreement(t testing.TB, d *dualgraph.Dual, p Params, s sim.LinkScheduler, seed uint64) []*Process {
	t.Helper()
	procs := make([]*Process, d.N())
	simProcs := make([]sim.Process, d.N())
	plan := NewPlan(p)
	for u := range procs {
		procs[u] = NewProcess(plan)
		simProcs[u] = procs[u]
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p.Rounds())
	return procs
}

func initialSeeds(procs []*Process) map[int]xrand.Seed {
	out := make(map[int]xrand.Seed, len(procs))
	for u, p := range procs {
		out[u] = p.Alg().InitialSeed()
	}
	return out
}

func TestSpecOnCluster(t *testing.T) {
	// Single-hop cluster: everyone hears everyone, so the first successful
	// leader ends the run for all; owner counts should be small.
	rng := xrand.New(1)
	d, err := dualgraph.SingleHopCluster(24, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.1, 64, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 10; trial++ {
		procs := runSeedAgreement(t, d, p, sched.Never{}, trial)
		ds, err := CollectDecisions(procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckConsistency(ds); err != nil {
			t.Fatal(err)
		}
		if err := CheckOwnership(ds, initialSeeds(procs)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAgreementBoundOnCluster(t *testing.T) {
	// Empirical δ on a single-hop cluster across trials: the committed
	// owner count should be far below n and concentrate near O(log(1/ε)).
	rng := xrand.New(2)
	d, err := dualgraph.SingleHopCluster(32, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.05, 64, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20
	worst := 0
	for trial := uint64(0); trial < trials; trial++ {
		procs := runSeedAgreement(t, d, p, sched.Never{}, 1000+trial)
		ds, err := CollectDecisions(procs)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := MaxOwnerCount(d, ds); m > worst {
			worst = m
		}
	}
	// δ bound with a generous practical constant: 6·log₂(1/ε₁) for r = 1.
	bound := int(math.Ceil(6 * math.Log2(1/p.Eps1)))
	if worst > bound {
		t.Errorf("worst owner count %d exceeds practical δ bound %d", worst, bound)
	}
	if worst <= 0 {
		t.Error("owner count should be positive")
	}
}

func TestSpecOnTwoTier(t *testing.T) {
	// Adversarially scheduled unreliable links between clusters: the spec's
	// deterministic conditions must hold regardless.
	rng := xrand.New(3)
	d, err := dualgraph.TwoTierClusters(4, 8, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.1, 64, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sim.LinkScheduler{sched.Never{}, sched.Always{}, sched.Random{P: 0.5, Seed: 9}, sched.Periodic{Period: 5, OnRounds: 2}} {
		procs := runSeedAgreement(t, d, p, s, 4)
		ds, err := CollectDecisions(procs)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckConsistency(ds); err != nil {
			t.Fatal(err)
		}
		if err := CheckOwnership(ds, initialSeeds(procs)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOwnersAreGpLocal(t *testing.T) {
	// A committed owner must be reachable: on a two-tier graph with all
	// unreliable links excluded, owners must come from the node's own
	// cluster (the only nodes it can ever hear).
	rng := xrand.New(4)
	d, err := dualgraph.TwoTierClusters(3, 6, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.1, 64, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	procs := runSeedAgreement(t, d, p, sched.Never{}, 5)
	ds, err := CollectDecisions(procs)
	if err != nil {
		t.Fatal(err)
	}
	for u, dec := range ds {
		if u/6 != dec.Owner/6 {
			t.Errorf("node %d committed to owner %d from another cluster with links excluded", u, dec.Owner)
		}
	}
}

func TestDecideEventsRecorded(t *testing.T) {
	rng := xrand.New(5)
	d, err := dualgraph.SingleHopCluster(10, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.1, 64, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Process, d.N())
	simProcs := make([]sim.Process, d.N())
	plan := NewPlan(p)
	for u := range procs {
		procs[u] = NewProcess(plan)
		simProcs[u] = procs[u]
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p.Rounds())
	decides := e.Trace().ByKind(sim.EvDecide)
	if len(decides) != d.N() {
		t.Fatalf("%d decide events for %d nodes", len(decides), d.N())
	}
	seen := map[int]bool{}
	for _, ev := range decides {
		if seen[ev.Node] {
			t.Fatalf("node %d recorded two decide events", ev.Node)
		}
		seen[ev.Node] = true
		if ev.From != procs[ev.Node].Decision().Owner {
			t.Fatalf("event owner %d ≠ decision owner %d", ev.From, procs[ev.Node].Decision().Owner)
		}
	}
}

func TestIndependenceStatistical(t *testing.T) {
	// Condition 4 (independence): committed seeds of distinct owners are
	// uniform over S. Check first-bit balance over many trials.
	rng := xrand.New(6)
	d, err := dualgraph.SingleHopCluster(12, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParams(0.25, 32, d.Delta())
	if err != nil {
		t.Fatal(err)
	}
	ones, total := 0, 0
	for trial := uint64(0); trial < 300; trial++ {
		procs := runSeedAgreement(t, d, p, sched.Never{}, 50000+trial)
		ds, err := CollectDecisions(procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range OwnerSeeds(ds) {
			ones += int(s.Words(nil)[0] & 1)
			total++
		}
	}
	rate := float64(ones) / float64(total)
	if math.Abs(rate-0.5) > 0.1 {
		t.Errorf("first-bit rate of committed owner seeds = %v over %d seeds", rate, total)
	}
}

func TestCheckConsistencyDetectsViolation(t *testing.T) {
	r := xrand.New(7)
	s1, s2 := r.DrawSeed(16), r.DrawSeed(16)
	ds := []Decision{{Owner: 1, Seed: s1}, {Owner: 1, Seed: s2}}
	if err := CheckConsistency(ds); err == nil {
		t.Error("conflicting seeds for one owner passed consistency")
	}
	if err := CheckConsistency([]Decision{{Owner: 1}}); err == nil {
		t.Error("empty seed passed consistency")
	}
}

func TestCheckOwnershipDetectsViolation(t *testing.T) {
	r := xrand.New(8)
	s1, s2 := r.DrawSeed(16), r.DrawSeed(16)
	initial := map[int]xrand.Seed{1: s1}
	if err := CheckOwnership([]Decision{{Owner: 2, Seed: s1}}, initial); err == nil {
		t.Error("unknown owner passed")
	}
	if err := CheckOwnership([]Decision{{Owner: 1, Seed: s2}}, initial); err == nil {
		t.Error("foreign seed passed")
	}
	if err := CheckOwnership([]Decision{{Owner: 1, Seed: s1}}, initial); err != nil {
		t.Errorf("valid ownership rejected: %v", err)
	}
}

func TestOwnerCountSingleton(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := []Decision{{Owner: 0, Seed: xrand.New(1).DrawSeed(8)}}
	if got := OwnerCount(d, ds, 0); got != 1 {
		t.Errorf("OwnerCount = %d, want 1", got)
	}
	m, arg := MaxOwnerCount(d, ds)
	if m != 1 || arg != 0 {
		t.Errorf("MaxOwnerCount = %d,%d", m, arg)
	}
}

func TestMaxOwnerCountEmpty(t *testing.T) {
	d, err := dualgraph.Abstract(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, arg := MaxOwnerCount(d, nil)
	if m != 0 || arg != -1 {
		t.Errorf("MaxOwnerCount on empty = %d,%d", m, arg)
	}
}

func TestTimeComplexityMatchesTheorem(t *testing.T) {
	// Measured rounds must equal the closed form (log Δ)·⌈c₄log²(1/ε₁)⌉.
	for _, delta := range []int{4, 16, 64} {
		for _, eps := range []float64{0.25, 0.1} {
			p := Params{Eps1: eps, Kappa: 8, Delta: delta, C4: DefaultC4}
			l := math.Log2(1 / eps)
			want := Log2Ceil(delta) * int(math.Ceil(DefaultC4*l*l))
			if got := p.Rounds(); got != want {
				t.Errorf("Δ=%d ε=%v: Rounds = %d, want %d", delta, eps, got, want)
			}
		}
	}
}

func BenchmarkSeedAgreementCluster(b *testing.B) {
	rng := xrand.New(1)
	d, err := dualgraph.SingleHopCluster(32, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewParams(0.1, 64, d.Delta())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSeedAgreement(b, d, p, sched.Never{}, uint64(i))
	}
}

// TestProcessFootprint bounds what an initialised standalone process
// retains. Every process of an E-SEED run shares one Plan, so a process
// keeps its Alg, its NodeEnv and its stream, ≈ 280 B; a private plan per
// process, its ⌈Rounds⌉-entry position table and election probabilities,
// put it at ≈ 1,136 B at ε₁ = 0.1, Δ = 16.
func TestProcessFootprint(t *testing.T) {
	const n = 10_000
	p, err := NewParams(0.1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(p)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	procs := make([]*Process, n)
	for u := range procs {
		procs[u] = NewProcess(plan)
		procs[u].Init(&sim.NodeEnv{ID: u, Delta: 16, DeltaPrime: 16, R: 1,
			Rng: xrand.NodeSource(1, u), Rec: nopRecorder{}})
	}
	perProc := float64(heap()-before) / n
	runtime.KeepAlive(procs)
	t.Logf("%.0f B retained per initialised process", perProc)
	if perProc >= 400 {
		t.Errorf("an initialised process retains %.0f B, want < 400 (one shared plan per run)", perProc)
	}
}

// nopRecorder discards events.
type nopRecorder struct{}

func (nopRecorder) Record(sim.Event) {}
