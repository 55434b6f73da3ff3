package dualgraph

import (
	"slices"
	"testing"
	"testing/quick"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate ignored
	g.AddEdge(3, 3) // self-loop ignored

	if g.N() != 5 {
		t.Errorf("N = %d", g.N())
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) true")
	}
	if g.HasEdge(3, 3) {
		t.Error("self-loop present")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
	if g.MaxDegreePlusOne() != 3 {
		t.Errorf("MaxDegreePlusOne = %d", g.MaxDegreePlusOne())
	}
}

func TestGraphNeighborsSorted(t *testing.T) {
	g := NewGraph(10)
	for _, v := range []int{7, 3, 9, 1, 5} {
		g.AddEdge(0, v)
	}
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors not sorted: %v", nbrs)
		}
	}
}

func TestGraphEdgesRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	g := NewGraph(30)
	for i := 0; i < 100; i++ {
		g.AddEdge(rng.Intn(30), rng.Intn(30))
	}
	edges := g.Edges()
	if len(edges) != g.EdgeCount() {
		t.Fatalf("Edges() returned %d, EdgeCount = %d", len(edges), g.EdgeCount())
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %v not normalised", e)
		}
		if !g.HasEdge(int(e.U), int(e.V)) {
			t.Fatalf("edge %v not in graph", e)
		}
	}
}

func TestGraphBFSAndDiameter(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	dist := g.BFSDist(0)
	want := []int{0, 1, 2, 3, -1}
	for i, d := range want {
		if dist[i] != d {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
	if _, conn := g.Diameter(); conn {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(3, 4)
	diam, conn := g.Diameter()
	if !conn || diam != 4 {
		t.Errorf("Diameter = %d,%v want 4,true", diam, conn)
	}
}

func TestGraphAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(2).AddEdge(0, 5)
}

func TestNewDualValidation(t *testing.T) {
	t.Run("reliable edge missing from G'", func(t *testing.T) {
		g, gp := NewGraph(2), NewGraph(2)
		g.AddEdge(0, 1)
		if _, err := NewDual(g, gp, nil, 1); err == nil {
			t.Fatal("want error for E ⊄ E'")
		}
	})
	t.Run("vertex count mismatch", func(t *testing.T) {
		if _, err := NewDual(NewGraph(2), NewGraph(3), nil, 1); err == nil {
			t.Fatal("want error for mismatched vertex counts")
		}
	})
	t.Run("r below 1", func(t *testing.T) {
		if _, err := NewDual(NewGraph(1), NewGraph(1), nil, 0.5); err == nil {
			t.Fatal("want error for r < 1")
		}
	})
	t.Run("geographic condition 1 violated", func(t *testing.T) {
		// Two vertices at distance 0.5 with no reliable edge.
		emb := []geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}
		if _, err := NewDual(NewGraph(2), NewGraph(2), emb, 1); err == nil {
			t.Fatal("want error for close pair without reliable edge")
		}
	})
	t.Run("geographic condition 2 violated", func(t *testing.T) {
		// Unreliable edge spanning distance 5 > r = 2.
		g, gp := NewGraph(2), NewGraph(2)
		gp.AddEdge(0, 1)
		emb := []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}
		if _, err := NewDual(g, gp, emb, 2); err == nil {
			t.Fatal("want error for over-long unreliable edge")
		}
	})
	t.Run("valid dual", func(t *testing.T) {
		g, gp := NewGraph(3), NewGraph(3)
		g.AddEdge(0, 1)
		gp.AddEdge(0, 1)
		gp.AddEdge(1, 2)
		emb := []geo.Point{{X: 0, Y: 0}, {X: 0.8, Y: 0}, {X: 2, Y: 0}}
		d, err := NewDual(g, gp, emb, 1.5)
		if err != nil {
			t.Fatalf("NewDual: %v", err)
		}
		if d.Delta() != 2 || d.DeltaPrime() != 3 {
			t.Errorf("Δ=%d Δ'=%d, want 2, 3", d.Delta(), d.DeltaPrime())
		}
	})
}

func TestUnreliableIndex(t *testing.T) {
	g, gp := NewGraph(4), NewGraph(4)
	g.AddEdge(0, 1)
	gp.AddEdge(0, 1)
	gp.AddEdge(0, 2)
	gp.AddEdge(2, 3)
	d, err := NewDual(g, gp, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ue := unreliableEdges(d)
	if len(ue) != 2 {
		t.Fatalf("unreliable edges = %v, want 2 edges", ue)
	}
	for _, e := range ue {
		if d.G.HasEdge(int(e.U), int(e.V)) {
			t.Errorf("edge %v is reliable but indexed unreliable", e)
		}
		if !d.Gp.HasEdge(int(e.U), int(e.V)) {
			t.Errorf("edge %v not in G'", e)
		}
	}
	// Incidence must cover each edge from both endpoints.
	counted := 0
	uc := d.UnreliableCSR()
	for u := 0; u < d.N(); u++ {
		for i := uc.Off[u]; i < uc.Off[u+1]; i++ {
			counted++
			e := ue[uc.Edges[i]]
			if int(e.U) != u && int(e.V) != u {
				t.Errorf("incidence of %d points at edge %v", u, e)
			}
			if int(uc.Peers[i]) == u {
				t.Errorf("incidence of %d lists itself as peer", u)
			}
		}
	}
	if counted != 2*len(ue) {
		t.Errorf("incidence lists %d arcs, want %d", counted, 2*len(ue))
	}
}

func TestRandomGeometricInvariants(t *testing.T) {
	rng := xrand.New(7)
	for _, policy := range []GreyPolicy{GreyUnreliable, GreyNone, GreyReliable, GreyMixed} {
		d, err := RandomGeometric(300, 8, 8, 1.8, policy, rng)
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if d.N() != 300 {
			t.Fatalf("policy %d: N = %d", policy, d.N())
		}
		if policy == GreyNone || policy == GreyReliable {
			if got := d.UnreliableEdgeCount(); got != 0 {
				t.Errorf("policy %d: expected no unreliable edges, got %d", policy, got)
			}
		}
		// Δ ≤ Δ′ always.
		if d.Delta() > d.DeltaPrime() {
			t.Errorf("policy %d: Δ=%d > Δ'=%d", policy, d.Delta(), d.DeltaPrime())
		}
	}
}

func TestLemmaA3DeltaPrimeBound(t *testing.T) {
	// Lemma A.3: Δ′ ≤ c_r·Δ with c_r = c₁r². Use the geo bound with h=1 as
	// the constant witness: any G′ neighborhood fits in the regions within
	// one hop of u's region, each of which is a reliable clique.
	rng := xrand.New(8)
	for _, r := range []float64{1, 1.5, 2} {
		d, err := RandomGeometric(400, 10, 10, r, GreyUnreliable, rng)
		if err != nil {
			t.Fatal(err)
		}
		bound := geo.FBound(r, 1) * float64(d.Delta())
		if float64(d.DeltaPrime()) > bound {
			t.Errorf("r=%v: Δ'=%d exceeds c_r·Δ=%v", r, d.DeltaPrime(), bound)
		}
	}
}

func TestSingleHopCluster(t *testing.T) {
	rng := xrand.New(9)
	d, err := SingleHopCluster(20, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Diameter ≤ 1 disc ⇒ G is a clique ⇒ Δ = n.
	if d.Delta() != 20 {
		t.Errorf("Δ = %d, want 20 (clique)", d.Delta())
	}
	if got := d.UnreliableEdgeCount(); got != 0 {
		t.Errorf("single-hop cluster with r=1 has %d unreliable edges", got)
	}
}

func TestTwoTierClusters(t *testing.T) {
	rng := xrand.New(10)
	d, err := TwoTierClusters(4, 6, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 24 {
		t.Fatalf("N = %d", d.N())
	}
	// Every cluster is a reliable clique: Δ ≥ m.
	if d.Delta() < 6 {
		t.Errorf("Δ = %d, want ≥ 6", d.Delta())
	}
	// There must be unreliable inter-cluster edges and no reliable ones.
	if d.UnreliableEdgeCount() == 0 {
		t.Error("no unreliable inter-cluster edges")
	}
	for _, e := range d.G.Edges() {
		if int(e.U)/6 != int(e.V)/6 {
			t.Errorf("reliable edge %v crosses clusters", e)
		}
	}
	for _, e := range unreliableEdges(d) {
		if int(e.U)/6 == int(e.V)/6 {
			t.Errorf("unreliable edge %v inside a cluster", e)
		}
	}
}

func TestTwoTierClustersRejectsSmallR(t *testing.T) {
	if _, err := TwoTierClusters(2, 2, 1, xrand.New(1)); err == nil {
		t.Fatal("want error for r ≤ 1")
	}
}

func TestLine(t *testing.T) {
	rng := xrand.New(11)
	d, err := Line(10, 1, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Spacing 1: consecutive vertices are reliable neighbors.
	for i := 0; i+1 < 10; i++ {
		if !d.G.HasEdge(i, i+1) {
			t.Errorf("line edge {%d,%d} missing", i, i+1)
		}
	}
	// Distance-2 pairs (gap 2 > r) are unconnected.
	if d.Gp.HasEdge(0, 2) {
		t.Error("line has G' edge at distance 2 > r")
	}
	diam, conn := d.G.Diameter()
	if !conn || diam != 9 {
		t.Errorf("line diameter = %d,%v", diam, conn)
	}
}

func TestGridLattice(t *testing.T) {
	rng := xrand.New(12)
	d, err := GridLattice(5, 1, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 25 {
		t.Fatalf("N = %d", d.N())
	}
	if _, conn := d.G.Diameter(); !conn {
		t.Error("lattice G disconnected at spacing 1")
	}
	// Diagonal pairs at distance √2 ∈ (1, 1.5] must be unreliable.
	if d.UnreliableEdgeCount() == 0 {
		t.Error("lattice has no unreliable diagonals")
	}
}

func TestAbstract(t *testing.T) {
	d, err := Abstract(3, []Edge{{0, 1}}, []Edge{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.G.HasEdge(0, 1) || d.G.HasEdge(1, 2) || !d.Gp.HasEdge(1, 2) {
		t.Error("Abstract edge classification wrong")
	}
	if _, err := Abstract(2, []Edge{{0, 1}}, []Edge{{0, 1}}); err == nil {
		t.Fatal("want error for edge in both lists")
	}
}

func TestStarWithDecoys(t *testing.T) {
	d, err := StarWithDecoys(5)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 7 {
		t.Fatalf("N = %d", d.N())
	}
	if !d.G.HasEdge(0, 1) {
		t.Error("receiver–sender reliable edge missing")
	}
	if got := d.UnreliableEdgeCount(); got != 5 {
		t.Errorf("unreliable edges = %d, want 5", got)
	}
	for i := 2; i < 7; i++ {
		if !d.Gp.HasEdge(0, i) || d.G.HasEdge(0, i) {
			t.Errorf("decoy %d link to receiver misclassified", i)
		}
	}
}

func TestGeographicPropertyRandom(t *testing.T) {
	// Property: every generated geometric dual graph passes its own
	// r-geographic validation (NewDual re-checks on construction, so a
	// successful build is itself the assertion; here we also re-verify the
	// two conditions directly on a sample).
	rng := xrand.New(13)
	d, err := RandomGeometric(200, 6, 6, 1.5, GreyMixed, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.N(); u++ {
		for v := u + 1; v < d.N(); v++ {
			dist := geo.Dist(d.Emb[u], d.Emb[v])
			if dist <= 1 && !d.G.HasEdge(u, v) {
				t.Fatalf("condition 1 violated for %d,%d", u, v)
			}
			if dist > 1.5 && d.Gp.HasEdge(u, v) {
				t.Fatalf("condition 2 violated for %d,%d", u, v)
			}
		}
	}
}

func TestHasEdgeQuick(t *testing.T) {
	// Property: AddEdge(u,v) ⇒ HasEdge(u,v) ∧ HasEdge(v,u); absent edges
	// are reported absent.
	f := func(pairs [][2]uint8) bool {
		g := NewGraph(64)
		added := map[[2]int]bool{}
		for _, p := range pairs {
			u, v := int(p[0]%64), int(p[1]%64)
			g.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				added[[2]int{u, v}] = true
			}
		}
		for u := 0; u < 64; u++ {
			for v := u + 1; v < 64; v++ {
				if g.HasEdge(u, v) != added[[2]int{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRandomGeometric(b *testing.B) {
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomGeometric(1000, 15, 15, 2, GreyUnreliable, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCSRConsistency checks that the unreliable incidence agrees exactly
// with G′ ∖ G: every row lists its node's unreliable peers, and the edges
// are numbered in (U, V) order, each row's indices ascending.
func TestCSRConsistency(t *testing.T) {
	rng := xrand.New(9)
	d, err := RandomGeometric(300, 8, 8, 1.8, GreyUnreliable, rng)
	if err != nil {
		t.Fatal(err)
	}
	var want []Edge
	for _, e := range d.Gp.Edges() {
		if !d.G.HasEdge(int(e.U), int(e.V)) {
			want = append(want, e)
		}
	}
	uc := d.UnreliableCSR()
	if len(uc.Off) != d.N()+1 || len(uc.Peers) != len(uc.Edges) {
		t.Fatalf("unreliable CSR shape: %d offsets, %d peers, %d edges",
			len(uc.Off), len(uc.Peers), len(uc.Edges))
	}
	if len(uc.Peers) != 2*len(want) || d.UnreliableEdgeCount() != len(want) {
		t.Fatalf("unreliable CSR has %d arcs and counts %d edges for %d edges of G′ ∖ G",
			len(uc.Peers), d.UnreliableEdgeCount(), len(want))
	}
	if ue := unreliableEdges(d); !slices.Equal(ue, want) {
		t.Fatalf("forward arcs by edge index %v, want G′ ∖ G in (U, V) order %v", ue, want)
	}
	for u := 0; u < d.N(); u++ {
		for i := uc.Off[u]; i < uc.Off[u+1]; i++ {
			if i > uc.Off[u] && uc.Edges[i] <= uc.Edges[i-1] {
				t.Fatalf("node %d: CSR edge indices %d, %d not increasing", u, uc.Edges[i-1], uc.Edges[i])
			}
			e := want[uc.Edges[i]]
			peer := e.V
			if e.V == int32(u) {
				peer = e.U
			} else if e.U != int32(u) {
				t.Fatalf("node %d: arc edge %v does not touch it", u, e)
			}
			if uc.Peers[i] != peer {
				t.Fatalf("node %d arc %d: peer %d, want %d (edge %v)", u, i, uc.Peers[i], peer, e)
			}
		}
	}
}

// TestCSREmptyAndSingleton pins the degenerate shapes.
func TestCSREmptyAndSingleton(t *testing.T) {
	for _, n := range []int{0, 1} {
		d, err := Abstract(n, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		uc := d.UnreliableCSR()
		if len(uc.Off) != n+1 {
			t.Errorf("n=%d: %d offsets", n, len(uc.Off))
		}
		if len(uc.Peers) != 0 || d.UnreliableEdgeCount() != 0 {
			t.Errorf("n=%d: nonempty incidence", n)
		}
	}
}

// unreliableEdges lists E′ ∖ E by edge index, read off the incidence: an
// edge is its forward arc, row w with peer p > w, at index Edges[i].
func unreliableEdges(d *Dual) []Edge {
	uc := d.UnreliableCSR()
	out := make([]Edge, d.UnreliableEdgeCount())
	for w := range len(uc.Off) - 1 {
		for i := uc.Off[w]; i < uc.Off[w+1]; i++ {
			if p := uc.Peers[i]; p > int32(w) {
				out[uc.Edges[i]] = Edge{U: int32(w), V: p}
			}
		}
	}
	return out
}
