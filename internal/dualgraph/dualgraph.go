package dualgraph

import (
	"fmt"
	"slices"
	"sort"

	"lbcast/internal/geo"
	"lbcast/internal/par"
)

// Graph is a simple undirected graph over vertices 0..N-1 stored as sorted
// adjacency lists.
type Graph struct {
	n   int
	adj [][]int32
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("dualgraph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// ignored; callers construct graphs once and then treat them as immutable.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("dualgraph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
}

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// NewGraphFromEdges bulk-builds a graph: all edges are collected into the
// adjacency lists first, then every list is sorted once and deduplicated in
// place. For a graph with m edges this costs O(m log Δ) total instead of
// the O(m·Δ) of repeated sorted inserts, which is what made graph
// construction dominate the n = 10⁵ sweep point. Self-loops are ignored and
// duplicates collapse, so the result is identical to AddEdge-ing every pair
// into an empty graph (the dualgraph tests pin that equivalence against the
// sorted-insert oracle).
func NewGraphFromEdges(n int, edges []Edge) *Graph {
	return NewGraphFromEdgesWorkers(n, edges, 1)
}

// parallelSortMinArcs is the arc count (2m) below which sharding the
// per-node sort/dedupe pass is not worth the fork-join.
const parallelSortMinArcs = 1 << 15

// NewGraphFromEdgesWorkers is NewGraphFromEdges with the per-node
// sort-and-compact pass — the O(m log Δ) bulk of the build — sharded over
// contiguous vertex ranges on the given number of workers. Nodes are
// independent there, so the result is identical for every worker count.
// The counting and scatter passes stay sequential (two O(m) sweeps), but
// the adjacency lists now carve one shared arena instead of one allocation
// per node: backing[off(u):off(u+1)] with the capacity clamped three-index
// style, so a later sorted insert into a compacted list can never grow into
// its neighbor's segment.
func NewGraphFromEdgesWorkers(n int, edges []Edge, workers int) *Graph {
	g := NewGraph(n)
	off := make([]int32, n+1)
	for _, e := range edges {
		u, v := int(e.U), int(e.V)
		if u == v {
			continue
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			panic(fmt.Sprintf("dualgraph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		off[u+1]++
		off[v+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	backing := make([]int32, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		backing[cur[e.U]] = e.V
		cur[e.U]++
		backing[cur[e.V]] = e.U
		cur[e.V]++
	}
	if int(off[n]) < parallelSortMinArcs {
		workers = 1
	}
	par.Ranges(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			s := backing[off[u]:off[u+1]:off[u+1]]
			if len(s) == 0 {
				continue
			}
			if len(s) >= 2 {
				slices.Sort(s)
				s = slices.Compact(s)
			}
			g.adj[u] = s
		}
	})
	return g
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	s := g.adj[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	return i < len(s) && s[i] == int32(v)
}

// Neighbors returns u's adjacency list, sorted ascending. The returned slice
// must not be modified.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// Degree returns |N(u)| (u itself not included).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegreePlusOne returns max over u of |N(u) ∪ {u}|, the quantity the
// paper's Δ and Δ′ bound. For the empty graph it returns 1 if there is at
// least one vertex, else 0.
func (g *Graph) MaxDegreePlusOne() int {
	if g.n == 0 {
		return 0
	}
	maxDeg := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg + 1
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// Edges returns all edges, each once, ordered by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.EdgeCount())
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				out = append(out, Edge{U: int32(u), V: v})
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	for u := range g.adj {
		c.adj[u] = append([]int32(nil), g.adj[u]...)
	}
	return c
}

// BFSDist returns hop distances from src, with -1 for unreachable vertices.
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// Diameter returns the largest finite BFS distance over all pairs, and
// whether the graph is connected. O(n·m); intended for test-scale graphs.
func (g *Graph) Diameter() (int, bool) {
	diam := 0
	for u := 0; u < g.n; u++ {
		for _, d := range g.BFSDist(u) {
			if d == -1 {
				return 0, false
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam, true
}

// Dual is a dual graph network (G, G′) with an optional plane embedding.
// Invariant: E(G) ⊆ E(G′) and both graphs share the vertex set.
type Dual struct {
	G, Gp *Graph
	// Emb is the plane embedding witnessing the r-geographic property;
	// nil for abstract (non-geographic) dual graphs used in unit tests.
	Emb []geo.Point
	// R is the r parameter of the r-geographic property, ≥ 1.
	R float64

	unreliable []Edge // E′ \ E, ordered
	uAdj       [][]unreliableArc

	gCSR CSR
	uCSR UnreliableCSR

	// present[v] is false for vertices detached by PatchNode (crashed-and-
	// left or not-yet-joined nodes). nil means every vertex is present — the
	// construction-time state, so churn-free duals pay nothing.
	present []bool
	// patchStencil caches the radius-R neighbor stencil PatchNode scans when
	// attaching a node; it depends only on R.
	patchStencil []geo.CellOffset
	// uArc backs the uAdj incidence slices; uCur and uNew are patch-path
	// scratch (incidence fill cursors, per-attach new unreliable edges).
	uArc []unreliableArc
	uCur []int32
	uNew []Edge
}

// CSR is a flattened adjacency in compressed-sparse-row form: the neighbors
// of node u are Targets[Off[u]:Off[u+1]], sorted ascending. The round
// engine's transmitter-scatter kernel walks it as contiguous memory instead
// of chasing per-node slice headers.
type CSR struct {
	Off     []int32
	Targets []int32
}

// Degree returns the number of entries for node u.
func (c CSR) Degree(u int) int { return int(c.Off[u+1] - c.Off[u]) }

// UnreliableCSR is the flattened unreliable incidence: for node u, the
// incident unreliable edges have peers Peers[Off[u]:Off[u+1]] and edge
// indices (into Dual.UnreliableEdges) Edges[Off[u]:Off[u+1]], in increasing
// edge-index order.
type UnreliableCSR struct {
	Off   []int32
	Peers []int32
	Edges []int32
}

// unreliableArc is one endpoint's view of an unreliable edge.
type unreliableArc struct {
	peer int32
	edge int32 // index into unreliable
}

// NewDual assembles and validates a dual graph. g and gp must have the same
// vertex count and every edge of g must appear in gp. emb may be nil; if
// given, it must have one point per vertex and witness the r-geographic
// property for the supplied r.
//
// NewDual is the untrusted entry point: input of unknown provenance
// (abstract edge lists, deserialised topologies, tests) goes through the
// full Validate pass. The geometric builders, which enforce the
// r-geographic conditions by construction, use newDualTrusted and skip the
// re-validation — it was the dominant cost of large constructions.
func NewDual(g, gp *Graph, emb []geo.Point, r float64) (*Dual, error) {
	d := &Dual{G: g, Gp: gp, Emb: emb, R: r}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.index()
	return d, nil
}

// newDualTrusted assembles a dual graph without validating the invariants:
// the caller vouches that E ⊆ E′ and, when emb is non-nil, that the
// r-geographic conditions hold. Reserved for builders that enforce those
// conditions structurally; everything else must go through NewDual.
// trusted_test.go pins that both paths produce structurally identical duals
// and that Validate still rejects inputs the trusted path would accept.
func newDualTrusted(g, gp *Graph, emb []geo.Point, r float64) *Dual {
	d := &Dual{G: g, Gp: gp, Emb: emb, R: r}
	d.index()
	return d
}

// Validate checks the dual graph invariants — shared vertex set, E ⊆ E′,
// r ≥ 1, and (when an embedding is present) both r-geographic conditions.
// NewDual runs it on every untrusted input; tests run it to certify the
// trusted construction path.
func (d *Dual) Validate() error {
	if d.G == nil || d.Gp == nil {
		return fmt.Errorf("dualgraph: nil graph")
	}
	if d.G.N() != d.Gp.N() {
		return fmt.Errorf("dualgraph: vertex count mismatch: G has %d, G' has %d", d.G.N(), d.Gp.N())
	}
	if err := checkR(d.R); err != nil {
		return err
	}
	for u := 0; u < d.G.N(); u++ {
		for _, v := range d.G.Neighbors(u) {
			if !d.Gp.HasEdge(u, int(v)) {
				return fmt.Errorf("dualgraph: reliable edge {%d,%d} missing from G'", u, v)
			}
		}
	}
	if d.Emb != nil {
		if len(d.Emb) != d.G.N() {
			return fmt.Errorf("dualgraph: embedding has %d points for %d vertices", len(d.Emb), d.G.N())
		}
		if err := geo.CheckPoints(d.Emb); err != nil {
			return fmt.Errorf("dualgraph: %w", err)
		}
		if err := d.checkGeographic(); err != nil {
			return err
		}
	}
	return nil
}

// checkGeographic verifies both r-geographic conditions:
// d(u,v) ≤ 1 ⇒ {u,v} ∈ E, and d(u,v) > r ⇒ {u,v} ∉ E′.
func (d *Dual) checkGeographic() error {
	n := d.G.N()
	// Condition 2 only needs existing E′ edges.
	for u := 0; u < n; u++ {
		for _, v := range d.Gp.Neighbors(u) {
			if int32(u) < v && geo.Dist(d.Emb[u], d.Emb[v]) > d.R {
				return fmt.Errorf("dualgraph: unreliable edge {%d,%d} spans %v > r=%v",
					u, v, geo.Dist(d.Emb[u], d.Emb[v]), d.R)
			}
		}
	}
	// Condition 1 needs all close pairs; the grid index bounds the scan to
	// the unit-distance stencil around each vertex instead of O(n²). Absent
	// vertices keep a (stale) embedding entry but participate in no edges, so
	// pairs touching them are exempt from the close-pair condition.
	gi := geo.BuildGridIndex(d.Emb)
	stencil := geo.NeighborStencil(1)
	var bad error
	for u := 0; u < n && bad == nil; u++ {
		if !d.Present(u) {
			continue
		}
		gi.VisitNear(u, stencil, func(v32 int32) {
			v := int(v32)
			if bad != nil || v <= u || !d.Present(v) {
				return
			}
			if geo.Dist(d.Emb[u], d.Emb[v]) <= 1 && !d.G.HasEdge(u, v) {
				bad = fmt.Errorf("dualgraph: vertices %d,%d at distance %v ≤ 1 lack a reliable edge",
					u, v, geo.Dist(d.Emb[u], d.Emb[v]))
			}
		})
	}
	return bad
}

// index precomputes the unreliable edge list, per-node incidence and the
// flattened CSR forms, the structures the round engine consults when
// applying a link schedule and scattering transmissions. PatchNode maintains
// the edge list incrementally and re-runs rebuildFlat after every splice, so
// the steady-state churn path reuses the same backing arrays. Callers that
// copy the CSR slice headers (the round engine does, at construction) must
// re-read them after any patch — rebuildFlat rewrites the shared backing
// arrays in place whenever capacity allows.
func (d *Dual) index() {
	d.scanUnreliable()
	d.rebuildFlat()
}

// scanUnreliable derives the canonical unreliable edge list E′ ∖ E from the
// adjacency lists: u ascending over sorted G′ adjacency with u < v, i.e.
// (U, V)-lexicographic order. Both adjacency lists are sorted, so a forward
// merge walk over G.adj[u] replaces a per-arc binary search. This full scan
// runs at construction only; PatchNode maintains d.unreliable incrementally
// in the same canonical order.
func (d *Dual) scanUnreliable() {
	n := d.G.N()
	d.unreliable = d.unreliable[:0]
	for u := 0; u < n; u++ {
		gAdj := d.G.adj[u]
		gi := 0
		for _, v := range d.Gp.adj[u] {
			if v <= int32(u) {
				continue
			}
			for gi < len(gAdj) && gAdj[gi] < v {
				gi++
			}
			if gi < len(gAdj) && gAdj[gi] == v {
				continue
			}
			d.unreliable = append(d.unreliable, Edge{U: int32(u), V: v})
		}
	}
}

// rebuildFlat re-derives the flattened forms — per-node unreliable
// incidence, the unreliable CSR and the reliable CSR — from d.unreliable
// and the adjacency lists, reusing buffer capacity. Edge indices are
// positions in d.unreliable; because the list is canonically ordered, the
// counting pass plus scatter pass below lays every uAdj[u] out sorted by
// peer, matching what a per-node sort would produce. uAdj slices alias the
// shared uArc buffer and, like the CSR headers, stay valid only until the
// next patch.
func (d *Dual) rebuildFlat() {
	n := d.G.N()
	gTotal := 0
	for u := 0; u < n; u++ {
		gTotal += len(d.G.adj[u])
	}
	if len(d.gCSR.Off) != n+1 {
		d.gCSR.Off = make([]int32, n+1)
	}
	if cap(d.gCSR.Targets) < gTotal {
		d.gCSR.Targets = make([]int32, 0, gTotal)
	} else {
		d.gCSR.Targets = d.gCSR.Targets[:0]
	}
	for u := 0; u < n; u++ {
		d.gCSR.Off[u] = int32(len(d.gCSR.Targets))
		d.gCSR.Targets = append(d.gCSR.Targets, d.G.adj[u]...)
	}
	d.gCSR.Off[n] = int32(gTotal)

	uTotal := 2 * len(d.unreliable)
	if len(d.uCSR.Off) != n+1 {
		d.uCSR.Off = make([]int32, n+1)
	}
	off := d.uCSR.Off
	for i := range off {
		off[i] = 0
	}
	for _, e := range d.unreliable {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	if cap(d.uArc) < uTotal {
		d.uArc = make([]unreliableArc, uTotal)
	}
	buf := d.uArc[:uTotal]
	if cap(d.uCur) < n {
		d.uCur = make([]int32, n)
	}
	cur := d.uCur[:n]
	copy(cur, off[:n])
	for i, e := range d.unreliable {
		buf[cur[e.U]] = unreliableArc{peer: e.V, edge: int32(i)}
		cur[e.U]++
		buf[cur[e.V]] = unreliableArc{peer: e.U, edge: int32(i)}
		cur[e.V]++
	}
	if len(d.uAdj) != n {
		d.uAdj = make([][]unreliableArc, n)
	}
	for u := 0; u < n; u++ {
		d.uAdj[u] = buf[off[u]:off[u+1]:off[u+1]]
	}
	if cap(d.uCSR.Peers) < uTotal {
		d.uCSR.Peers = make([]int32, uTotal)
		d.uCSR.Edges = make([]int32, uTotal)
	}
	d.uCSR.Peers = d.uCSR.Peers[:uTotal]
	d.uCSR.Edges = d.uCSR.Edges[:uTotal]
	for i, a := range buf {
		d.uCSR.Peers[i] = a.peer
		d.uCSR.Edges[i] = a.edge
	}
}

// N returns the number of vertices.
func (d *Dual) N() int { return d.G.N() }

// Delta returns Δ: the maximum over u of |N_G(u) ∪ {u}|.
func (d *Dual) Delta() int { return d.G.MaxDegreePlusOne() }

// DeltaPrime returns Δ′: the maximum over u of |N_G′(u) ∪ {u}|.
func (d *Dual) DeltaPrime() int { return d.Gp.MaxDegreePlusOne() }

// UnreliableEdges returns E′ \ E in a fixed order. The round engine and the
// link schedulers use indices into this slice as the edge identifiers of the
// link schedule. The returned slice must not be modified.
func (d *Dual) UnreliableEdges() []Edge { return d.unreliable }

// UnreliableIncidence returns, for node u, the (peer, edge index) pairs of
// the unreliable edges incident to u. The returned slice must not be modified.
func (d *Dual) UnreliableIncidence(u int) []unreliableArc { return d.uAdj[u] }

// ReliableCSR returns the flattened G adjacency. The returned slices must
// not be modified.
func (d *Dual) ReliableCSR() CSR { return d.gCSR }

// UnreliableCSR returns the flattened unreliable incidence. The returned
// slices must not be modified.
func (d *Dual) UnreliableCSR() UnreliableCSR { return d.uCSR }

// Peer returns the far endpoint of the unreliable edge as seen from the
// node whose incidence list produced this arc.
func (a unreliableArc) Peer() int32 { return a.peer }

// EdgeIndex returns the arc's index into Dual.UnreliableEdges.
func (a unreliableArc) EdgeIndex() int32 { return a.edge }
