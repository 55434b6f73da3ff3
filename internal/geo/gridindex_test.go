package geo

import (
	"math"
	"slices"
	"testing"

	"lbcast/internal/xrand"
)

// Dense reports whether the O(1) cell table is active (false: lookups binary
// search the sorted keys).
func (gi *GridIndex) Dense() bool { return gi.cells != nil }

// Bounds returns the bounding box of the occupied regions in grid
// coordinates: the minimum region coordinates and the number of cells per
// axis (zero for an empty index).
func (gi *GridIndex) Bounds() (minI, minJ, nI, nJ int32) {
	return gi.minI, gi.minJ, gi.nI, gi.nJ
}

// OfVertex returns the region index of vertex v, or -1 when v is absent.
func (gi *GridIndex) OfVertex(v int) int { return int(gi.of[v]) }

// randomEmbedding scatters n points over a side×side square.
func randomEmbedding(n int, side float64, rng *xrand.Source) []Point {
	emb := make([]Point, n)
	for i := range emb {
		emb[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return emb
}

// checkGridMatchesRegionIndex asserts the GridIndex agrees with the map-based
// oracle on every region and vertex.
func checkGridMatchesRegionIndex(t *testing.T, emb []Point) {
	t.Helper()
	gi := BuildGridIndex(emb)
	oracle := BuildRegionIndex(emb)
	if len(gi.of) != len(emb) {
		t.Fatalf("NumVertices = %d, want %d", len(gi.of), len(emb))
	}
	if gi.Len() != len(oracle.Members) {
		t.Fatalf("region count = %d, want %d", gi.Len(), len(oracle.Members))
	}
	oracleIDs := oracle.Regions() // sorted (I, J)
	if !slices.Equal(gi.Regions(), oracleIDs) {
		t.Fatalf("region keys diverge:\n got %v\nwant %v", gi.Regions(), oracleIDs)
	}
	for ri, id := range gi.Regions() {
		if got, ok := gi.IndexOf(id); !ok || got != ri {
			t.Fatalf("IndexOf(%v) = (%d, %v), want (%d, true)", id, got, ok, ri)
		}
		if got, want := gi.MembersAt(ri), oracle.Members[id]; !equalInt32Int(got, want) {
			t.Fatalf("region %v members = %v, want %v", id, got, want)
		}
		if got := members(gi, id); !slices.Equal(got, gi.MembersAt(ri)) {
			t.Fatalf("Members(%v) = %v, want %v", id, got, gi.MembersAt(ri))
		}
	}
	for v := range emb {
		if got, want := gi.RegionOfVertex(v), oracle.Of[v]; got != want {
			t.Fatalf("vertex %d in region %v, want %v", v, got, want)
		}
		if gi.RegionAt(gi.OfVertex(v)) != oracle.Of[v] {
			t.Fatalf("OfVertex(%d) points at %v, want %v", v, gi.RegionAt(gi.OfVertex(v)), oracle.Of[v])
		}
	}
	// Unoccupied lookups miss in both modes.
	_, minJ, _, _ := gi.Bounds()
	if _, ok := gi.IndexOf(RegionID{I: math.MaxInt32 / 2, J: minJ}); ok {
		t.Fatal("IndexOf reported a far-away region as occupied")
	}
	if m := members(gi, RegionID{I: math.MaxInt32 / 2, J: minJ}); m != nil {
		t.Fatalf("Members of unoccupied region = %v, want nil", m)
	}
}

func equalInt32Int(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if int(a[i]) != b[i] {
			return false
		}
	}
	return true
}

func TestGridIndexMatchesRegionIndex(t *testing.T) {
	rng := xrand.New(7)
	for seed := 0; seed < 8; seed++ {
		checkGridMatchesRegionIndex(t, randomEmbedding(200+seed*50, 9, rng))
	}
	// Negative coordinates and co-located points.
	emb := []Point{{-3.2, 4.1}, {-3.2, 4.1}, {0, 0}, {0.49, 0.49}, {-0.01, -0.01}, {7, -7}}
	checkGridMatchesRegionIndex(t, emb)
}

func TestGridIndexSparseFallback(t *testing.T) {
	// A few points spread over a huge area force the sparse (binary-search)
	// layout; behaviour must match the oracle exactly.
	rng := xrand.New(8)
	emb := randomEmbedding(40, 1e5, rng)
	gi := BuildGridIndex(emb)
	if gi.Dense() {
		t.Fatal("expected sparse mode for a 2·10⁵-cell-per-side bounding box over 40 points")
	}
	checkGridMatchesRegionIndex(t, emb)

	dense := BuildGridIndex(randomEmbedding(400, 8, rng))
	if !dense.Dense() {
		t.Fatal("expected dense mode for a compact embedding")
	}
}

func TestGridIndexEmpty(t *testing.T) {
	gi := BuildGridIndex(nil)
	if gi.Len() != 0 || len(gi.of) != 0 {
		t.Fatalf("empty index: regions=%d vertices=%d", gi.Len(), len(gi.of))
	}
	if _, ok := gi.IndexOf(RegionID{}); ok {
		t.Fatal("empty index reports region (0,0) occupied")
	}
	if got := gi.Regions(); len(got) != 0 {
		t.Fatalf("empty index has regions %v", got)
	}
}

// TestRegionIterationOrderDeterministic pins the satellite fix: both the
// dense index and the (previously map-ordered) RegionIndex iterate regions
// in sorted (I, J) order, identically across rebuilds.
func TestRegionIterationOrderDeterministic(t *testing.T) {
	rng := xrand.New(9)
	emb := randomEmbedding(500, 11, rng)
	wantSorted := func(ids []RegionID) {
		t.Helper()
		if !slices.IsSortedFunc(ids, compareRegionIDs) {
			t.Fatalf("regions not in sorted (I, J) order: %v", ids)
		}
	}
	gi := BuildGridIndex(emb)
	wantSorted(gi.Regions())
	first := BuildRegionIndex(emb).Regions()
	wantSorted(first)
	for trial := 0; trial < 5; trial++ {
		if got := BuildRegionIndex(emb).Regions(); !slices.Equal(got, first) {
			t.Fatalf("RegionIndex.Regions order changed across rebuilds:\n got %v\nwant %v", got, first)
		}
	}
	if !slices.Equal(gi.Regions(), first) {
		t.Fatal("GridIndex and RegionIndex disagree on region order")
	}
}

// TestNeighborStencil pins the stencil against its definition: exactly the
// offsets whose regions lie within distance r, in (DI, DJ) lexicographic
// order — the order the old square-window scans visited cells in.
func TestNeighborStencil(t *testing.T) {
	for _, r := range []float64{0, 1, 1.5, 2, 3.3} {
		got := NeighborStencil(r)
		w := int32(math.Ceil(r/RegionSide)) + 2 // strictly wider than any candidate
		var want []CellOffset
		for di := -w; di <= w; di++ {
			for dj := -w; dj <= w; dj++ {
				if RegionDist(RegionID{}, RegionID{I: di, J: dj}) <= r {
					want = append(want, CellOffset{DI: di, DJ: dj})
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("r=%v: stencil = %v, want %v", r, got, want)
		}
	}
	if got := NeighborStencil(-1); got != nil {
		t.Fatalf("negative radius stencil = %v, want nil", got)
	}
	// The stencil must be a strict subset of the square window for r where
	// corners fall out (r=1.5: window 4 → 81 cells, stencil drops corners).
	if st, window := len(NeighborStencil(1.5)), 9*9; st >= window {
		t.Fatalf("stencil has %d cells, want fewer than the %d-cell square window", st, window)
	}
}

// TestGridStencilVisitsSamePairs pins GridIndex.Stencil against the full
// NeighborStencil: for every vertex, the same neighbours in the same order,
// on compact and spread embeddings, at radii whose full stencil fits the
// embedding and radii far beyond it — while the clamped stencil stays
// bounded by the embedding instead of growing as r².
func TestGridStencilVisitsSamePairs(t *testing.T) {
	rng := xrand.New(12)
	spread := randomEmbedding(12, 60, rng)
	for _, tc := range []struct {
		name string
		emb  []Point
		r    float64
	}{
		{"compact r=1.5", randomEmbedding(150, 5, rng), 1.5},
		{"compact r=40", randomEmbedding(60, 3, rng), 40},
		{"spread r=3", spread, 3},
		{"spread r=25", spread, 25},
		{"spread r=200", spread, 200},
		{"single point", []Point{{1, 1}}, 7},
	} {
		gi := BuildGridIndex(tc.emb)
		full, clamped := NeighborStencil(tc.r), gi.Stencil(tc.r)
		for u := range tc.emb {
			var want, got []int32
			gi.VisitNear(u, full, func(v int32) { want = append(want, v) })
			gi.VisitNear(u, clamped, func(v int32) { got = append(got, v) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: vertex %d visits %v, full stencil %v", tc.name, u, got, want)
			}
		}
		_, _, nI, nJ := gi.Bounds()
		if box := (2*int(nI) - 1) * (2*int(nJ) - 1); len(clamped) > box {
			t.Errorf("%s: %d offsets, more than the %d-cell bounding window", tc.name, len(clamped), box)
		}
	}
	// A radius whose full stencil would hold ~10¹⁸ offsets.
	if st := BuildGridIndex(spread).Stencil(1e9); len(st) > len(spread)*len(spread) {
		t.Errorf("r=1e9: %d offsets for %d points", len(st), len(spread))
	}
}

// TestCheckPoints accepts finite in-range coordinates and rejects NaN,
// infinite and out-of-range ones.
func TestCheckPoints(t *testing.T) {
	if err := CheckPoints([]Point{{0, 0}, {-MaxCoord, MaxCoord}}); err != nil {
		t.Errorf("rejected in-range points: %v", err)
	}
	for _, p := range []Point{{math.NaN(), 0}, {0, math.Inf(-1)}, {2 * MaxCoord, 0}} {
		if err := CheckPoints([]Point{{0, 0}, p}); err == nil {
			t.Errorf("accepted %v", p)
		}
	}
}

// TestGridIndexPairCoverage: scanning stencil neighborhoods from every vertex
// must visit every pair within distance r at least once (both directions are
// scanned, callers dedupe with v > u).
func TestGridIndexPairCoverage(t *testing.T) {
	rng := xrand.New(10)
	emb := randomEmbedding(150, 5, rng)
	const r = 1.5
	gi := BuildGridIndex(emb)
	st := NeighborStencil(r)
	seen := make(map[[2]int]bool)
	for u := range emb {
		ru := gi.RegionOfVertex(u)
		for _, o := range st {
			ri, ok := gi.IndexOf(RegionID{I: ru.I + o.DI, J: ru.J + o.DJ})
			if !ok {
				continue
			}
			for _, v := range gi.MembersAt(ri) {
				if int(v) > u {
					seen[[2]int{u, int(v)}] = true
				}
			}
		}
	}
	for u := range emb {
		for v := u + 1; v < len(emb); v++ {
			if Dist(emb[u], emb[v]) <= r && !seen[[2]int{u, v}] {
				t.Fatalf("pair (%d,%d) at distance %v ≤ %v not visited",
					u, v, Dist(emb[u], emb[v]), r)
			}
		}
	}
}

// TestVisitNearMatchesManualScan pins the shared iterator against the raw
// stencil loop its hot-path callers inline: same vertices, same order.
func TestVisitNearMatchesManualScan(t *testing.T) {
	emb := randomEmbedding(200, 6, xrand.New(11))
	gi := BuildGridIndex(emb)
	st := NeighborStencil(1.5)
	for u := range emb {
		var manual, shared []int32
		ru := gi.RegionOfVertex(u)
		for _, o := range st {
			if ri, ok := gi.IndexOf(RegionID{I: ru.I + o.DI, J: ru.J + o.DJ}); ok {
				manual = append(manual, gi.MembersAt(ri)...)
			}
		}
		gi.VisitNear(u, st, func(v int32) { shared = append(shared, v) })
		if !slices.Equal(manual, shared) {
			t.Fatalf("vertex %d: VisitNear order %v, manual scan %v", u, shared, manual)
		}
	}
}

func BenchmarkBuildGridIndex(b *testing.B) {
	emb := randomEmbedding(100000, 158, xrand.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGridIndex(emb)
	}
}

// members returns the vertices of the region with the given key (nil when
// unoccupied), in ascending vertex order.
func members(gi *GridIndex, id RegionID) []int32 {
	ri, ok := gi.IndexOf(id)
	if !ok {
		return nil
	}
	return gi.MembersAt(ri)
}

// contains reports whether vertex v is currently present in the index.
func contains(gi *GridIndex, v int) bool { return v < len(gi.of) && gi.of[v] >= 0 }
