package geo

import (
	"math"
	"testing"
	"testing/quick"

	"lbcast/internal/xrand"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionOf(t *testing.T) {
	tests := []struct {
		p    Point
		want RegionID
	}{
		{Point{0, 0}, RegionID{0, 0}},
		{Point{0.49, 0.49}, RegionID{0, 0}},
		{Point{0.5, 0}, RegionID{1, 0}}, // boundary belongs to the next region
		{Point{0, 0.5}, RegionID{0, 1}},
		{Point{-0.01, 0}, RegionID{-1, 0}},
		{Point{1.25, -0.75}, RegionID{2, -2}},
	}
	for _, tt := range tests {
		if got := RegionOf(tt.p); got != tt.want {
			t.Errorf("RegionOf(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRegionPartitionIsPartition(t *testing.T) {
	// Property: every point lies in exactly one region, and that region's
	// closed rect contains it.
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		// Keep coordinates in a sane range to avoid float-grid pathologies
		// at 1e300 scales, which the simulator never uses.
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		id := RegionOf(Point{x, y})
		x0, y0, x1, y1 := regionRect(id)
		return x >= x0 && x < x1+1e-9 && y >= y0 && y < y1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRegionDiameter(t *testing.T) {
	if RegionSide*math.Sqrt2 > 1 {
		t.Fatal("region diameter exceeds 1; Lemma A.1 condition 1 violated")
	}
	// Two points in the same region are within distance 1 (condition 1).
	r := xrand.New(1)
	for i := 0; i < 1000; i++ {
		p := Point{r.Float64() * 10, r.Float64() * 10}
		q := Point{r.Float64() * 10, r.Float64() * 10}
		if RegionOf(p) == RegionOf(q) && Dist(p, q) > 1 {
			t.Fatalf("points %v and %v share region %v but are %v apart", p, q, RegionOf(p), Dist(p, q))
		}
	}
}

func TestRegionDist(t *testing.T) {
	tests := []struct {
		name string
		a, b RegionID
		want float64
	}{
		{"same region", RegionID{0, 0}, RegionID{0, 0}, 0},
		{"adjacent horizontally", RegionID{0, 0}, RegionID{1, 0}, 0},
		{"diagonal touch", RegionID{0, 0}, RegionID{1, 1}, 0},
		{"one apart horizontally", RegionID{0, 0}, RegionID{2, 0}, 0.5},
		{"one apart diagonally", RegionID{0, 0}, RegionID{2, 2}, math.Sqrt(0.5)},
		{"far", RegionID{0, 0}, RegionID{4, 0}, 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RegionDist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("RegionDist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestRegionDistSymmetricProperty(t *testing.T) {
	f := func(ai, aj, bi, bj int16) bool {
		a := RegionID{int32(ai), int32(aj)}
		b := RegionID{int32(bi), int32(bj)}
		return RegionDist(a, b) == RegionDist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionDistLowerBoundsPointDist(t *testing.T) {
	// Property: for any two points, the distance between their regions is a
	// lower bound on the distance between the points.
	r := xrand.New(2)
	for i := 0; i < 5000; i++ {
		p := Point{r.Float64()*20 - 10, r.Float64()*20 - 10}
		q := Point{r.Float64()*20 - 10, r.Float64()*20 - 10}
		if RegionDist(RegionOf(p), RegionOf(q)) > Dist(p, q)+1e-9 {
			t.Fatalf("region dist %v exceeds point dist %v for %v, %v",
				RegionDist(RegionOf(p), RegionOf(q)), Dist(p, q), p, q)
		}
	}
}

func TestBuildRegionIndex(t *testing.T) {
	emb := []Point{{0.1, 0.1}, {0.2, 0.3}, {0.6, 0.1}, {-0.2, 0.9}}
	idx := BuildRegionIndex(emb)
	if len(idx.Of) != 4 {
		t.Fatalf("Of has %d entries", len(idx.Of))
	}
	if got := idx.Of[0]; got != (RegionID{0, 0}) {
		t.Errorf("vertex 0 in %v", got)
	}
	if members := idx.Members[RegionID{0, 0}]; len(members) != 2 {
		t.Errorf("region (0,0) has members %v, want [0 1]", members)
	}
	if members := idx.Members[RegionID{1, 0}]; len(members) != 1 || members[0] != 2 {
		t.Errorf("region (1,0) has members %v, want [2]", members)
	}
	if members := idx.Members[RegionID{-1, 1}]; len(members) != 1 || members[0] != 3 {
		t.Errorf("region (-1,1) has members %v, want [3]", members)
	}
	total := 0
	for _, m := range idx.Members {
		total += len(m)
	}
	if total != len(emb) {
		t.Errorf("index covers %d vertices, want %d", total, len(emb))
	}
}

func TestRegionGraphAdjacency(t *testing.T) {
	// A row of regions 0..4 at r=1: side ½ means regions up to 2 cells
	// apart (gap ½ ≤ 1) and 3 cells apart (gap 1 ≤ 1) are adjacent;
	// 4 cells apart (gap 1.5) are not.
	ids := []RegionID{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}
	g := BuildRegionGraph(ids, 1)
	i0 := g.pos[RegionID{0, 0}]
	degs := map[int32]int{}
	for i := 0; i < g.Len(); i++ {
		degs[g.ids[i].I] = len(g.adj[i])
	}
	// Region 0 reaches regions 1,2,3 → degree 3. Region 2 reaches all others.
	if degs[0] != 3 {
		t.Errorf("degree of region 0 = %d, want 3", degs[0])
	}
	if degs[2] != 4 {
		t.Errorf("degree of region 2 = %d, want 4", degs[2])
	}
	within := g.WithinHops(i0, 1)
	if len(within) != 4 { // itself + 3 neighbors
		t.Errorf("WithinHops(0,1) = %d regions, want 4", len(within))
	}
	if got := g.WithinHops(i0, 0); len(got) != 1 {
		t.Errorf("WithinHops(0,0) = %d regions, want 1", len(got))
	}
	if got := g.WithinHops(i0, -1); got != nil {
		t.Errorf("WithinHops(0,-1) = %v, want nil", got)
	}
}

func TestRegionGraphHops(t *testing.T) {
	// A long row: hop distance should grow linearly along the row.
	var ids []RegionID
	for i := int32(0); i < 40; i++ {
		ids = append(ids, RegionID{i, 0})
	}
	g := BuildRegionGraph(ids, 1)
	i0 := g.pos[RegionID{0, 0}]
	// At r=1 each hop reaches 3 cells down the row, so within h hops we see
	// cells 0..3h → 3h+1 regions (clamped to 40).
	for h := 0; h <= 13; h++ {
		want := 3*h + 1
		if want > 40 {
			want = 40
		}
		if got := len(g.WithinHops(i0, h)); got != want {
			t.Errorf("WithinHops(0,%d) = %d, want %d", h, got, want)
		}
	}
}

func TestRegionGraphFBounded(t *testing.T) {
	// Random embeddings: the occupied-region graph must satisfy the
	// Lemma A.1 bound f(h) = c₁ r² h² for every region and h.
	r := xrand.New(3)
	for _, rr := range []float64{1, 1.5, 2, 3} {
		emb := make([]Point, 500)
		for i := range emb {
			emb[i] = Point{r.Float64() * 15, r.Float64() * 15}
		}
		idx := BuildRegionIndex(emb)
		g := BuildRegionGraph(idx.Regions(), rr)
		ok, region, h, count := g.CheckFBounded(4)
		if !ok {
			t.Errorf("r=%v: region %v has %d regions within %d hops, bound %v",
				rr, region, count, h, FBound(rr, h))
		}
	}
}

func TestRegionGraphEmpty(t *testing.T) {
	g := BuildRegionGraph(nil, 1)
	if g.Len() != 0 {
		t.Fatalf("empty graph has %d regions", g.Len())
	}
	if ok, _, _, _ := g.CheckFBounded(3); !ok {
		t.Fatal("empty graph fails f-boundedness")
	}
}

func TestRegionGraphSingle(t *testing.T) {
	g := BuildRegionGraph([]RegionID{{5, -3}}, 2)
	if g.Len() != 1 || len(g.adj[0]) != 0 {
		t.Fatalf("singleton graph wrong: len=%d deg=%d", g.Len(), len(g.adj[0]))
	}
	if got := g.WithinHops(0, 10); len(got) != 1 {
		t.Fatalf("WithinHops on singleton = %d", len(got))
	}
}

func TestRegionGraphIndexOfMissing(t *testing.T) {
	g := BuildRegionGraph([]RegionID{{0, 0}}, 1)
	if _, ok := g.pos[RegionID{9, 9}]; ok {
		t.Fatal("IndexOf reported a missing region as present")
	}
}

func TestRegionGraphAdjacencyMatchesDistance(t *testing.T) {
	// Property: adjacency in the built graph is exactly RegionDist ≤ r.
	r := xrand.New(4)
	for trial := 0; trial < 20; trial++ {
		seen := map[RegionID]bool{}
		var ids []RegionID
		for i := 0; i < 30; i++ {
			id := RegionID{int32(r.Intn(12)), int32(r.Intn(12))}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		rr := 1 + r.Float64()*2
		g := BuildRegionGraph(ids, rr)
		adj := make(map[[2]int]bool)
		for i := 0; i < g.Len(); i++ {
			for _, j := range g.adj[i] {
				adj[[2]int{i, j}] = true
			}
		}
		for i := 0; i < g.Len(); i++ {
			for j := 0; j < g.Len(); j++ {
				if i == j {
					continue
				}
				want := RegionDist(g.ids[i], g.ids[j]) <= rr
				if adj[[2]int{i, j}] != want {
					t.Fatalf("r=%v: adjacency(%v,%v)=%v, want %v",
						rr, g.ids[i], g.ids[j], adj[[2]int{i, j}], want)
				}
			}
		}
	}
}

func BenchmarkBuildRegionGraph(b *testing.B) {
	r := xrand.New(1)
	emb := make([]Point, 2000)
	for i := range emb {
		emb[i] = Point{r.Float64() * 30, r.Float64() * 30}
	}
	idx := BuildRegionIndex(emb)
	ids := idx.Regions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildRegionGraph(ids, 2)
	}
}
