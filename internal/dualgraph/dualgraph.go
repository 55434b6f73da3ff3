package dualgraph

import (
	"fmt"
	"slices"
	"sort"

	"lbcast/internal/geo"
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

// NewGraphFromEdges bulk-builds a graph from an edge list in counting
// passes: sortedRows lays the arcs out as ascending rows with no comparison
// sort, and a repeated edge, adjacent in its rows, is compacted away. Self-
// loops are ignored and duplicates collapse, so the result is identical to
// AddEdge-ing every pair into an empty graph (the dualgraph tests pin that
// equivalence against the sorted-insert oracle).
//
// The adjacency lists carve one shared arena instead of one allocation per
// node: rows[off(u):off(u+1)] with the capacity clamped three-index style,
// so a later sorted insert into a compacted list can never grow into its
// neighbor's segment.
func NewGraphFromEdges(n int, edges []Edge) *Graph {
	g := NewGraph(n)
	off, rows := sortedRows(n, edges)
	for u := range n {
		if s := rows[off[u]:off[u+1]:off[u+1]]; len(s) > 0 {
			g.adj[u] = slices.Compact(s)
		}
	}
	return g
}

// sortedRows lays out the arcs of edges as compressed-sparse rows, row u
// being rows[off[u]:off[u+1]], each ascending, without a comparison sort. A
// counting scatter puts each edge's two arcs into unsorted rows; a
// transpose then walks the sources in ascending order and appends each
// source to its neighbours' rows, so every row comes out ascending and the
// arcs of a repeated edge sit side by side. Self-loops are dropped; an
// endpoint outside [0, n) panics.
func sortedRows(n int, edges []Edge) (off, rows []int32) {
	off = make([]int32, n+1)
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
	for u := range n {
		off[u+1] += off[u]
	}
	cur := slices.Clone(off[:n])
	scattered := make([]int32, off[n])
	for _, e := range edges {
		if e.U != e.V {
			scattered[cur[e.U]] = e.V
			cur[e.U]++
			scattered[cur[e.V]] = e.U
			cur[e.V]++
		}
	}
	copy(cur, off[:n])
	rows = make([]int32, off[n])
	for s := range n {
		for _, t := range scattered[off[s]:off[s+1]] {
			rows[cur[t]] = int32(s)
			cur[t]++
		}
	}
	return off, rows
}

// mergeRows returns G′ as the per-node merge of g's rows with the
// unreliable rows peers[off[u]:off[u+1]], which are ascending and share no
// entry with g's, laid out in one arena like NewGraphFromEdges's rows.
func mergeRows(g *Graph, off, peers []int32) *Graph {
	gp := NewGraph(g.n)
	arena := make([]int32, 2*g.EdgeCount()+len(peers))
	k := 0
	for u, a := range g.adj {
		b := peers[off[u]:off[u+1]]
		start, i, j := k, 0, 0
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			arena[k] = min(x, y)
			k++
			step := 0 // branch-free: which row advances is a coin flip
			if x < y {
				step = 1
			}
			i += step
			j += 1 - step
		}
		k += copy(arena[k:], a[i:])
		k += copy(arena[k:], b[j:])
		if k > start {
			gp.adj[u] = arena[start:k:k]
		}
	}
	return gp
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

	uCSR UnreliableCSR

	// present[v] is false for vertices detached by PatchNode (crashed-and-
	// left or not-yet-joined nodes). nil means every vertex is present — the
	// construction-time state, so churn-free duals pay nothing.
	present []bool
	// patchStencil caches the radius-R neighbor stencil PatchNode scans when
	// attaching a node; it depends only on R.
	patchStencil []geo.CellOffset
	// next and uNew are PatchNode's scratch: number's per-vertex cursors,
	// and the patched vertex's unreliable peers.
	next []int32
	uNew []int32
}

// UnreliableCSR is the flattened unreliable incidence E′ ∖ E: for node u,
// the incident unreliable edges have peers Peers[Off[u]:Off[u+1]],
// ascending, and edge indices Edges[Off[u]:Off[u+1]], in increasing
// edge-index order. The edges are numbered 0, 1, … in (U, V) order, so an
// edge's index is that of its forward arc, the one in the row of its lower
// endpoint. These indices are the edge identifiers of the link schedule.
type UnreliableCSR struct {
	Off   []int32
	Peers []int32
	Edges []int32
}

// NewDual assembles and validates a dual graph. g and gp must have the same
// vertex count and every edge of g must appear in gp. emb may be nil; if
// given, it must have one point per vertex and witness the r-geographic
// property for the supplied r.
//
// NewDual is the untrusted entry point: input of unknown provenance
// (abstract edge lists, deserialised topologies, tests) goes through the
// full Validate pass. The geometric builders, which enforce the
// r-geographic conditions by construction, assemble their duals directly
// and skip the re-validation — it was the dominant cost of large
// constructions.
func NewDual(g, gp *Graph, emb []geo.Point, r float64) (*Dual, error) {
	d := &Dual{G: g, Gp: gp, Emb: emb, R: r}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.index()
	return d, nil
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

// index derives the unreliable rows of a validated dual as the per-node
// difference G′ ∖ G, one merge walk per node (both rows ascend, and
// E ⊆ E′), then flattens the dual.
func (d *Dual) index() {
	n := d.G.N()
	off := make([]int32, n+1)
	peers := make([]int32, 0, 2*(d.Gp.EdgeCount()-d.G.EdgeCount()))
	for u := range n {
		a, i := d.G.adj[u], 0
		for _, v := range d.Gp.adj[u] {
			for i < len(a) && a[i] < v {
				i++
			}
			if i == len(a) || a[i] != v {
				peers = append(peers, v)
			}
		}
		off[u+1] = int32(len(peers))
	}
	d.uCSR.Off, d.uCSR.Peers = off, peers
	d.flatten()
}

// flatten completes a dual whose unreliable rows are in d.uCSR (Off and
// Peers): number assigns the incidence's edge indices. The round engine
// consults the incidence when it applies a link schedule and scatters
// transmissions, and G's own rows for the reliable arcs. PatchNode keeps
// both current in place, rewriting the incidence's backing arrays whenever
// capacity allows, so callers that copy its slice headers (the round
// engine does, at construction) must re-read them after any patch.
func (d *Dual) flatten() {
	d.uCSR.Edges = make([]int32, len(d.uCSR.Peers))
	d.number(make([]int32, d.G.N()))
}

// number numbers the unreliable rows in one pass in node order. A forward
// peer p > w of row w takes the next canonical index from a counter; a
// backward peer p < w takes next[p]++, where next[p] was set to the
// counter when row p was reached. So the edges are numbered in (U, V)
// order and every row's indices ascend. Rows ascend, so each splits into
// its backward and its forward peers, and the pass walks the two runs
// without a branch per arc. next is scratch of one entry per vertex.
func (d *Dual) number(next []int32) {
	uc := d.uCSR
	k := int32(0)
	for w := range len(uc.Off) - 1 {
		i, end := uc.Off[w], uc.Off[w+1]
		next[w] = k
		for ; i < end && uc.Peers[i] < int32(w); i++ {
			p := uc.Peers[i]
			uc.Edges[i] = next[p]
			next[p]++
		}
		for ; i < end; i++ {
			uc.Edges[i] = k
			k++
		}
	}
}

// N returns the number of vertices.
func (d *Dual) N() int { return d.G.N() }

// Delta returns Δ: the maximum over u of |N_G(u) ∪ {u}|.
func (d *Dual) Delta() int { return d.G.MaxDegreePlusOne() }

// DeltaPrime returns Δ′: the maximum over u of |N_G′(u) ∪ {u}|.
func (d *Dual) DeltaPrime() int { return d.Gp.MaxDegreePlusOne() }

// UnreliableEdgeCount returns |E′ ∖ E|, the number of edge indices the
// link schedule answers for.
func (d *Dual) UnreliableEdgeCount() int { return len(d.uCSR.Peers) / 2 }

// UnreliableCSR returns the flattened unreliable incidence. The returned
// slices must not be modified.
func (d *Dual) UnreliableCSR() UnreliableCSR { return d.uCSR }
