package main

import (
	"math"
	"testing"

	"lbcast"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantLevel float64
	}{
		{2000, 0.99}, // 20 samples beyond p99
		{1000, 0.99}, // exactly 10 beyond
		{500, 0.98},  // p99 would leave 5 beyond
		{100, 0.90},
		{15, 0.5}, // never below the median
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // unsorted input
		}
		level, v := tailQuantile(samples, 0.99)
		if math.Abs(level-tc.wantLevel) > 1e-12 {
			t.Errorf("n=%d: level %v, want %v", tc.n, level, tc.wantLevel)
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if tc.n >= 2*minTail && beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p%v = %v, want ≥ %d", tc.n, beyond, 100*level, v, minTail)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCampusPlacement(t *testing.T) {
	a, b := campusPlacement(7), campusPlacement(7)
	if len(a) != campusRooms*campusPerRoom {
		t.Fatalf("%d nodes, want %d", len(a), campusRooms*campusPerRoom)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d placed at %v and %v for the same seed", i, a[i], b[i])
		}
	}
	if c := campusPlacement(8); c[0] == a[0] && c[1] == a[1] {
		t.Errorf("seeds 7 and 8 gave the same placement")
	}
	// Within a room every pair is reliable; across rooms no pair is.
	dist := func(p, q lbcast.Point) float64 { return geo.Dist(geo.Point(p), geo.Point(q)) }
	for u := range a {
		for v := u + 1; v < len(a); v++ {
			same := u/campusPerRoom == v/campusPerRoom
			if d := dist(a[u], a[v]); same != (d <= 1) {
				t.Fatalf("nodes %d, %d (same room %v) at distance %v", u, v, same, d)
			}
		}
	}
	nw, err := campusBuild(a, 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := nw.Schedule()
	if sc.Delta != campusPerRoom {
		t.Errorf("Δ = %d, want %d", sc.Delta, campusPerRoom)
	}
	t.Logf("Δ′ = %d, t_ack = %d rounds", sc.DeltaPrime, sc.TAck)
}

// TestCampusFingerprint runs a shrunken campus-ack twice untraced and once
// traced: all three must agree, so the recorded fingerprints pin the
// simulation and not the run.
func TestCampusFingerprint(t *testing.T) {
	const rounds = 1500
	pts := campusPlacement(3)
	r1, err := runCampusRep(pts, 3, rounds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runCampusRep(pts, 3, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if r1.fp != r2.fp {
		t.Fatalf("two untraced runs: %#x vs %#x", r1.fp, r2.fp)
	}
	fp, _, _, err := traceCampusRep(pts, 3, rounds, newTracer(), newMetricSet())
	if err != nil {
		t.Fatal(err)
	}
	if fp != r1.fp {
		t.Fatalf("traced %#x vs untraced %#x", fp, r1.fp)
	}
	if len(r1.client.deliverNs) == 0 {
		t.Errorf("no deliveries in %d rounds", rounds)
	}
}

// TestMatrixBuildCounts checks that matrix-small's set-up builds the same
// amount for every seed, so setup_s does not follow the inputs' work.
func TestMatrixBuildCounts(t *testing.T) {
	var first buildCounts
	for i, seed := range []uint64{1, 97, 1005} {
		b, err := buildMatrix(seed)
		if err != nil {
			t.Fatal(err)
		}
		c := b.counts()
		if i == 0 {
			first = c
			t.Logf("%+v", c)
		} else if c != first {
			t.Errorf("seed %d builds %+v, seed 1 %+v", seed, c, first)
		}
	}
	if first.topologies != len(compareSizes)+1+len(churnLoads) || first.services == 0 {
		t.Errorf("unexpected build %+v", first)
	}
}

// TestWrapperInterfaces checks that each wrapper mirrors the optional engine
// interfaces of the value it wraps, and refuses values it cannot mirror.
func TestWrapperInterfaces(t *testing.T) {
	rt := newTracer().newRound(1, "")
	if _, err := wrapSched(sched.NewRandom(0.5, 1), rt); err != nil {
		t.Errorf("random scheduler: %v", err)
	}
	type perEdgeOnly struct{ sim.LinkScheduler }
	if _, err := wrapSched(perEdgeOnly{sched.Never{}}, rt); err == nil {
		t.Errorf("a scheduler without fast paths was wrapped")
	}
	if err := checkInterfaces(sched.Never{}, perEdgeOnly{sched.Never{}}); err == nil {
		t.Errorf("checkInterfaces missed a dropped fast path")
	}
}
