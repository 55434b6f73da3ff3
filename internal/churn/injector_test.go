package churn

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// relayProc is a state-carrying probe: it transmits by private coin, bumps
// its transmit probability for one round after each reception, and records
// every reception. Any delivery mis-resolution therefore cascades into
// different later transmit decisions, giving the determinism tests teeth.
type relayProc struct {
	env   *sim.NodeEnv
	base  float64
	eager bool
	inits int
}

func (r *relayProc) Init(env *sim.NodeEnv) { r.env, r.eager = env, false; r.inits++ }

func (r *relayProc) Transmit(t int) (any, bool) {
	p := r.base
	if r.eager {
		p, r.eager = 0.5, false
	}
	return r.env.ID, r.env.Rng.Coin(p)
}

func (r *relayProc) Receive(t, from int, payload any, ok bool) {
	if ok {
		r.eager = true
		r.env.Rec.Record(sim.Event{Round: t, Node: r.env.ID, Kind: sim.EvHear, From: from})
	}
}

// traceEq fails the test at the first divergence between two traces.
func traceEq(t *testing.T, got, want *sim.Trace) {
	t.Helper()
	if got.RoundsRun != want.RoundsRun || got.Len() != want.Len() ||
		got.Transmissions != want.Transmissions || got.Deliveries != want.Deliveries ||
		got.Collisions != want.Collisions {
		t.Fatalf("aggregates diverged: rounds %d/%d events %d/%d tx %d/%d del %d/%d col %d/%d",
			got.RoundsRun, want.RoundsRun, got.Len(), want.Len(), got.Transmissions,
			want.Transmissions, got.Deliveries, want.Deliveries, got.Collisions, want.Collisions)
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("event %d diverged: %+v vs %+v", i, got.At(i), want.At(i))
		}
	}
}

// churnFixture builds a geometric dual, procs and an injector-driven engine.
type churnFixture struct {
	d     *dualgraph.Dual
	procs []*relayProc
	inj   *Injector
	eng   *sim.Engine
}

// buildChurn assembles one engine run over a fresh copy of the topology.
// withIndex toggles the grid index handed to PatchNode.
func buildChurn(t *testing.T, plan *Plan, seed uint64, driver sim.Driver, workers int, withIndex bool) *churnFixture {
	t.Helper()
	d, err := dualgraph.RandomGeometric(60, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*relayProc, d.N())
	simProcs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = &relayProc{base: 0.1}
		simProcs[u] = procs[u]
	}
	var idx *geo.GridIndex
	if withIndex {
		idx = geo.BuildGridIndex(d.Emb)
	}
	fade, err := NewFadeScheduler(sched.NewRandom(0.5, 11), d, plan.Fades)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(InjectorConfig{
		Plan: plan, Dual: d, Index: idx, Policy: dualgraph.GreyUnreliable,
		Restart: func(u int) sim.Process {
			procs[u] = &relayProc{base: 0.1}
			simProcs[u] = procs[u]
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
		Dual: d, Procs: simProcs, Sched: fade, Env: inj, Seed: seed,
		Driver: driver, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(eng)
	return &churnFixture{d: d, procs: procs, inj: inj, eng: eng}
}

// TestEmptyPlanTransparent pins the pass-through contract: an engine run
// under an empty-plan injector and a fade wrapper with no epochs is
// byte-identical to the same run with the bare scheduler and no
// environment.
func TestEmptyPlanTransparent(t *testing.T) {
	fx := buildChurn(t, FixedScript(nil, nil, nil), 77, sim.DriverSequential, 0, true)
	fx.eng.Run(300)
	if err := fx.inj.Err(); err != nil {
		t.Fatal(err)
	}

	d, err := dualgraph.RandomGeometric(60, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = &relayProc{base: 0.1}
	}
	plain, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.5, 11), Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(300)
	traceEq(t, fx.eng.Trace(), plain.Trace())
}

// TestInjectorCrashWindow replays a fixed crash/recover script and checks
// the hard guarantees: the victim is provably silent while down (no
// transmissions, no receptions at or by it), and its process is a fresh
// instance afterwards.
func TestInjectorCrashWindow(t *testing.T) {
	const victim, from, to = 7, 50, 80
	plan := FixedScript([]Event{
		{Round: from, Kind: Crash, Node: victim},
		{Round: to, Kind: Recover, Node: victim},
	}, nil, nil)
	fx := buildChurn(t, plan, 13, sim.DriverSequential, 0, true)
	fx.eng.Run(200)
	if err := fx.inj.Err(); err != nil {
		t.Fatal(err)
	}
	tr := fx.eng.Trace()
	heardDuring := 0
	for ev := range tr.Events() {
		if ev.Kind != sim.EvHear {
			continue
		}
		inWindow := ev.Round >= from && ev.Round < to
		if inWindow && (ev.Node == victim || ev.From == victim) {
			t.Fatalf("round %d: crashed node %d involved in reception %+v", ev.Round, victim, ev)
		}
		if !inWindow && (ev.Node == victim || ev.From == victim) {
			heardDuring++
		}
	}
	if heardDuring == 0 {
		t.Fatal("victim never participated outside the crash window; fixture degenerate")
	}
	if fx.procs[victim].inits != 1 {
		t.Fatalf("restarted process Init ran %d times, want 1 (fresh instance)", fx.procs[victim].inits)
	}
}

// TestInjectorLeaveJoin drives a leave/rejoin cycle through the incremental
// patch path and checks the graph is structurally valid after every event,
// the grid index stays in sync, and the run is deterministic regardless of
// whether the index-accelerated or linear-scan patch path was used.
func TestInjectorLeaveJoin(t *testing.T) {
	plan := FixedScript([]Event{
		{Round: 30, Kind: Leave, Node: 3},
		{Round: 40, Kind: Leave, Node: 11},
		{Round: 90, Kind: Join, Node: 3},
		{Round: 120, Kind: Join, Node: 11},
	}, nil, []int{20})
	// Node 20 joins late via the plan too.
	plan = FixedScript(append(plan.Events, Event{Round: 60, Kind: Join, Node: 20}), nil, []int{20})

	run := func(withIndex bool) *sim.Trace {
		fx := buildChurn(t, plan, 29, sim.DriverSequential, 0, withIndex)
		fx.eng.Run(200)
		if err := fx.inj.Err(); err != nil {
			t.Fatal(err)
		}
		if err := fx.d.Validate(); err != nil {
			t.Fatalf("patched dual failed validation: %v", err)
		}
		for v := 0; v < fx.d.N(); v++ {
			if !fx.d.Present(v) {
				t.Fatalf("node %d absent at end, want all %d present", v, fx.d.N())
			}
		}
		return fx.eng.Trace()
	}
	withIdx := run(true)
	traceEq(t, run(false), withIdx)

	// The detached window must be radio-silent for the leavers.
	for ev := range withIdx.Events() {
		if ev.Kind != sim.EvHear {
			continue
		}
		if (ev.Node == 3 || ev.From == 3) && ev.Round >= 30 && ev.Round < 90 {
			t.Fatalf("departed node 3 involved in reception at round %d", ev.Round)
		}
		if (ev.Node == 20 || ev.From == 20) && ev.Round < 60 {
			t.Fatalf("not-yet-joined node 20 involved in reception at round %d", ev.Round)
		}
	}
}
