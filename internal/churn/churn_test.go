package churn

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// TestPoissonDeterministic pins the generator contract: a plan is a pure
// function of its config, every plan validates, and per-node fault streams
// are independent of N — growing the network never perturbs the schedules
// of existing nodes.
func TestPoissonDeterministic(t *testing.T) {
	cfg := PoissonConfig{
		N: 40, Rounds: 2000, Seed: 99,
		CrashRate: 0.002, MeanDowntime: 40,
		LeaveRate: 0.0005, MeanAbsence: 80,
		InitialAbsent: []int{3, 17},
	}
	a, err := Poisson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Poisson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatalf("degenerate plan: no events at crash rate %v over %d rounds", cfg.CrashRate, cfg.Rounds)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same config produced %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(cfg.N); err != nil {
		t.Fatalf("generated plan must validate: %v", err)
	}

	// Node independence: the same nodes in a larger network keep their
	// schedules exactly.
	big := cfg
	big.N = 60
	c, err := Poisson(big)
	if err != nil {
		t.Fatal(err)
	}
	perNode := func(p *Plan, u int) []Event {
		var out []Event
		for _, ev := range p.Events {
			if ev.Node == u {
				out = append(out, ev)
			}
		}
		return out
	}
	for u := 0; u < cfg.N; u++ {
		ea, ec := perNode(a, u), perNode(c, u)
		if len(ea) != len(ec) {
			t.Fatalf("node %d schedule changed with N: %d vs %d events", u, len(ea), len(ec))
		}
		for i := range ea {
			if ea[i] != ec[i] {
				t.Fatalf("node %d event %d changed with N: %+v vs %+v", u, i, ea[i], ec[i])
			}
		}
	}

	d, err := Poisson(PoissonConfig{N: 40, Rounds: 2000, Seed: 100, CrashRate: 0.002, MeanDowntime: 40})
	if err != nil {
		t.Fatal(err)
	}
	same := len(d.Events) == len(a.Events)
	if same {
		for i := range d.Events {
			if d.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical %d-event plans", len(a.Events))
	}
}

// TestPlanValidateRejects spot-checks the lifecycle state machine.
func TestPlanValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
	}{
		{"crash down node", FixedScript([]Event{
			{Round: 1, Kind: Crash, Node: 0}, {Round: 2, Kind: Crash, Node: 0}}, nil, nil)},
		{"recover up node", FixedScript([]Event{{Round: 1, Kind: Recover, Node: 0}}, nil, nil)},
		{"leave absent node", FixedScript([]Event{{Round: 1, Kind: Leave, Node: 2}}, nil, []int{2})},
		{"join present node", FixedScript([]Event{{Round: 1, Kind: Join, Node: 0}}, nil, nil)},
		{"two events one round", &Plan{Events: []Event{
			{Round: 3, Kind: Crash, Node: 1}, {Round: 3, Kind: Leave, Node: 1}}}},
		{"round zero", FixedScript([]Event{{Round: 0, Kind: Crash, Node: 0}}, nil, nil)},
		{"node out of range", FixedScript([]Event{{Round: 1, Kind: Crash, Node: 9}}, nil, nil)},
		{"empty fade window", FixedScript(nil, []Fade{{Start: 5, End: 5, Regions: []geo.RegionID{{}}}}, nil)},
		{"fade without regions", FixedScript(nil, []Fade{{Start: 1, End: 2}}, nil)},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(4); err == nil {
			t.Errorf("%s: Validate accepted an illegal plan", tc.name)
		}
	}
	ok := FixedScript([]Event{
		{Round: 2, Kind: Crash, Node: 1},
		{Round: 5, Kind: Recover, Node: 1},
		{Round: 7, Kind: Leave, Node: 0},
		{Round: 9, Kind: Join, Node: 0},
		{Round: 4, Kind: Join, Node: 3},
	}, []Fade{{Start: 3, End: 8, Regions: []geo.RegionID{{I: 0, J: 0}}}}, []int{3})
	if err := ok.Validate(4); err != nil {
		t.Fatalf("legal plan rejected: %v", err)
	}
}

// TestFadeSchedulerMasks pins fading semantics on a line whose skip-one
// pairs are unreliable: during the epoch every unreliable edge touching a
// faded region is excluded under all four query paths, and outside the
// epoch the wrapper is transparent — bit-identical to the base scheduler.
// After a leave and a join renumber the edges, Rebind's mask follows the
// same definition on the patched dual.
func TestFadeSchedulerMasks(t *testing.T) {
	// Line spacing 0.8, r = 1.7: adjacent pairs (0.8) reliable, skip-one
	// pairs (1.6) unreliable grey-zone links.
	d, err := dualgraph.Line(8, 0.8, 1.7, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fade the region containing node 3 during rounds [10, 20).
	faded := geo.RegionOf(d.Emb[3])
	inner := sched.NewRandom(0.7, 5)
	f, err := NewFadeScheduler(inner, d, []Fade{{Start: 10, End: 20, Regions: []geo.RegionID{faded}}})
	if err != nil {
		t.Fatal(err)
	}

	// check compares every query path with the definition at round t: an
	// unreliable edge, taken from G′ ∖ G in (U, V) order (its index order),
	// is faded iff an endpoint lies in the faded region.
	check := func(round int) {
		t.Helper()
		var edges []dualgraph.Edge
		anyTouches := false
		touches := func(e dualgraph.Edge) bool {
			return geo.RegionOf(d.Emb[e.U]) == faded || geo.RegionOf(d.Emb[e.V]) == faded
		}
		for _, e := range d.Gp.Edges() {
			if !d.G.HasEdge(int(e.U), int(e.V)) {
				edges = append(edges, e)
				anyTouches = anyTouches || touches(e)
			}
		}
		if !anyTouches {
			t.Fatal("no unreliable edge touches the faded region; fixture broken")
		}
		mask := make([]bool, len(edges))
		ids := make([]int32, len(edges))
		for i := range ids {
			ids[i] = int32(i)
		}
		out := make([]bool, len(edges))
		inEpoch := round >= 10 && round < 20
		f.IncludedBatch(round, mask)
		f.IncludedFor(round, ids, out)
		for i, e := range edges {
			want := inner.Included(round, i)
			if inEpoch && touches(e) {
				want = false
			}
			if got := f.Included(round, i); got != want {
				t.Fatalf("round %d edge %d %v: Included=%v want %v", round, i, e, got, want)
			}
			if mask[i] != want || out[i] != want {
				t.Fatalf("round %d edge %d %v: batch=%v sparse=%v want %v", round, i, e, mask[i], out[i], want)
			}
		}
		if v, ok := f.Uniform(round); ok {
			for i := range edges {
				if f.Included(round, i) != v {
					t.Fatalf("round %d: Uniform claimed %v but edge %d disagrees", round, v, i)
				}
			}
		}
	}
	for round := 1; round <= 30; round++ {
		f.Advance(round)
		check(round)
	}

	// Inside the epoch, node 5 leaves, dropping {3,5} and {5,7} and
	// renumbering {4,6}; it rejoins at x = 2.45, in the faded region, with
	// an unreliable link to node 1, whose own region is not faded. The
	// active fade set does not change, so only Rebind refreshes the mask.
	moved := geo.Point{X: 2.45}
	f.Advance(15)
	for _, p := range []*geo.Point{nil, &moved} {
		if err := d.PatchNode(5, p, nil, dualgraph.GreyUnreliable); err != nil {
			t.Fatal(err)
		}
		f.Rebind()
		check(15)
	}
	f.Advance(25)
	check(25)
	if !d.Gp.HasEdge(1, 5) || d.G.HasEdge(1, 5) || geo.RegionOf(d.Emb[5]) != faded {
		t.Fatal("the rejoined node 5 has no faded unreliable edge to node 1; fixture broken")
	}
}
