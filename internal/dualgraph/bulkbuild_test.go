package dualgraph

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// TestNewGraphFromEdgesOracle pins the bulk-build path against the
// sorted-insert path (AddEdge), which stays in the codebase exactly as this
// validation oracle: for random edge multisets — including duplicates and
// self-loops — both constructions must produce identical adjacency.
func TestNewGraphFromEdgesOracle(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 2 + int(rng.Uint64()%40)
		m := int(rng.Uint64() % 200)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u := int32(rng.Uint64() % uint64(n))
			v := int32(rng.Uint64() % uint64(n))
			edges = append(edges, Edge{U: u, V: v})
			if rng.Coin(0.2) {
				// Exact duplicate, sometimes flipped.
				if rng.Coin(0.5) {
					edges = append(edges, Edge{U: v, V: u})
				} else {
					edges = append(edges, Edge{U: u, V: v})
				}
			}
		}

		oracle := NewGraph(n)
		for _, e := range edges {
			oracle.AddEdge(int(e.U), int(e.V))
		}
		bulk := NewGraphFromEdges(n, edges)

		if oracle.EdgeCount() != bulk.EdgeCount() {
			t.Fatalf("trial %d: edge count %d vs %d", trial, oracle.EdgeCount(), bulk.EdgeCount())
		}
		for u := 0; u < n; u++ {
			a, b := oracle.Neighbors(u), bulk.Neighbors(u)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d node %d: adjacency %v vs %v", trial, u, a, b)
			}
		}
	}
}

func TestNewGraphFromEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge did not panic")
		}
	}()
	NewGraphFromEdges(3, []Edge{{U: 0, V: 3}})
}

func TestNewGraphFromEdgesEmpty(t *testing.T) {
	g := NewGraphFromEdges(4, nil)
	if g.N() != 4 || g.EdgeCount() != 0 {
		t.Errorf("empty bulk build: n=%d edges=%d", g.N(), g.EdgeCount())
	}
	// Self-loops alone must leave the graph empty.
	g = NewGraphFromEdges(4, []Edge{{U: 1, V: 1}, {U: 2, V: 2}})
	if g.EdgeCount() != 0 {
		t.Errorf("self-loops produced %d edges", g.EdgeCount())
	}
}

// TestBuildersUnchangedByBulkPath pins that the grid-indexed pair scan and
// the bulk path build the graphs a direct all-pairs reconstruction from the
// embedding gives, for every grey policy whose outcome the scan's visit
// order cannot change.
func TestBuildersUnchangedByBulkPath(t *testing.T) {
	for _, policy := range []GreyPolicy{GreyUnreliable, GreyNone, GreyReliable} {
		d, err := RandomGeometric(120, 5, 5, 1.5, policy, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		n := d.N()
		g, gp := NewGraph(n), NewGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				dist := distOf(d, u, v)
				switch {
				case dist <= 1, dist <= d.R && policy == GreyReliable:
					g.AddEdge(u, v)
					gp.AddEdge(u, v)
				case dist <= d.R && policy == GreyUnreliable:
					gp.AddEdge(u, v)
				}
			}
		}
		for u := 0; u < n; u++ {
			if !reflect.DeepEqual(nonNil(d.G.Neighbors(u)), nonNil(g.Neighbors(u))) {
				t.Fatalf("policy %d: G adjacency of %d diverged: %v vs %v", policy, u, d.G.Neighbors(u), g.Neighbors(u))
			}
			if !reflect.DeepEqual(nonNil(d.Gp.Neighbors(u)), nonNil(gp.Neighbors(u))) {
				t.Fatalf("policy %d: G' adjacency of %d diverged: %v vs %v", policy, u, d.Gp.Neighbors(u), gp.Neighbors(u))
			}
		}
	}
}

func distOf(d *Dual, u, v int) float64 {
	return geo.Dist(d.Emb[u], d.Emb[v])
}

func nonNil(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}

// dualHash is an FNV-64a digest of everything a dual exposes to the engine
// and the schedulers: G's and G′'s adjacency rows, the unreliable edge list
// in its order, G's rows laid out as offsets and targets, and the
// unreliable incidence. Every row and array is prefixed with its length, so
// a digest pins the boundaries as well as the values. The edge list and
// G's offsets and targets are derived from the rows, in the bytes and the
// order of the edge list and reliable CSR copy the dual once kept, so the
// pinned digests predate their removal.
func dualHash(d *Dual) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(xs ...int32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	row := func(s []int32) {
		put(int32(len(s)))
		put(s...)
	}
	for _, g := range []*Graph{d.G, d.Gp} {
		put(int32(g.N()))
		for u := range g.N() {
			row(g.Neighbors(u))
		}
	}
	ue := unreliableEdges(d)
	put(int32(len(ue)))
	for _, e := range ue {
		put(e.U, e.V)
	}
	gOff, gTgt := make([]int32, 1, d.N()+1), []int32{}
	for u := range d.N() {
		gTgt = append(gTgt, d.G.Neighbors(u)...)
		gOff = append(gOff, int32(len(gTgt)))
	}
	uc := d.UnreliableCSR()
	for _, s := range [][]int32{gOff, gTgt, uc.Off, uc.Peers, uc.Edges} {
		row(s)
	}
	return h.Sum64()
}

// TestGreyMixedPinned pins the one policy whose dual depends on the pair
// scan's visit order: GreyMixed draws a coin per grey-zone pair in the order
// the scan reaches it, so a scan that visits pairs in another order changes
// the dual. The digests were recorded before the scan's region lookups and
// the CSR assembly were rewritten, and hold across that rewrite.
func TestGreyMixedPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want uint64
	}{
		{1, 0x114a146a14cce98f},
		{97, 0xfde383b16c736714},
	} {
		d, err := RandomGeometric(3000, 30, 30, 2.3, GreyMixed, xrand.New(c.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := dualHash(d); got != c.want {
			t.Errorf("seed %d: dual digest %#x, want %#x", c.seed, got, c.want)
		}
	}
}
