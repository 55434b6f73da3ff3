package dualgraph

import (
	"fmt"
	"math"
	"slices"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// GreyPolicy decides, for each pair of vertices in the grey zone — distance
// in (1, r] — whether the pair becomes a reliable edge, an unreliable edge,
// or no edge. The model allows any of the three; different policies give
// different stress profiles.
type GreyPolicy int

const (
	// GreyUnreliable puts every grey-zone pair in E′ \ E (the adversary
	// controls all of them). This is the hardest profile and the default.
	GreyUnreliable GreyPolicy = iota + 1
	// GreyNone leaves grey-zone pairs unconnected, yielding G = G′ (no
	// unreliable links at all) — the classical reliable radio model.
	GreyNone
	// GreyReliable puts grey-zone pairs in E, also yielding G = G′ but
	// with longer reliable reach.
	GreyReliable
	// GreyMixed assigns each grey-zone pair independently: unreliable with
	// probability ⅔, reliable with probability ⅙, absent otherwise.
	GreyMixed
)

// buildFromEmbedding derives (G, G′) from an embedding: pairs within
// distance 1 are reliable (condition 1), grey-zone pairs follow the policy,
// pairs beyond r are unconnected (condition 2).
//
// scanPairs finds the pairs over the geo.GridIndex and its distance-r
// stencil, so the cost is O(n·Δ′) rather than O(n²), and collects the edges
// into flat lists that NewGraphFromEdges bulk-builds (sort once, dedupe).
// The dual does not depend on the scan's visit order: every adjacency list
// is sorted, and the unreliable edges are derived from the adjacency in
// (U, V) order. Only GreyMixed sees the order, since it draws one coin per
// grey-zone pair in visit order.
//
// Because every produced edge satisfies the r-geographic conditions by
// construction, the result is assembled through the trusted path; tests
// certify it against Dual.Validate and the all-pairs loop.
func buildFromEmbedding(emb []geo.Point, r float64, policy GreyPolicy, rng *xrand.Source) (*Dual, error) {
	if err := checkR(r); err != nil {
		return nil, err
	}
	if err := geo.CheckPoints(emb); err != nil {
		return nil, fmt.Errorf("dualgraph: %w", err)
	}
	switch policy {
	case GreyUnreliable, GreyNone, GreyReliable, GreyMixed:
	default:
		return nil, fmt.Errorf("dualgraph: unknown grey policy %d", policy)
	}
	n := len(emb)
	gi := geo.BuildGridIndex(emb)
	gEdges, gpOnly := scanPairs(gi, gi.Stencil(r), emb, r, policy, rng)
	g := NewGraphFromEdges(n, gEdges)
	gp := NewGraphFromEdges(n, append(gEdges, gpOnly...))
	return newDualTrusted(g, gp, emb, r), nil
}

// checkR rejects a geographic parameter that is not a finite value ≥ 1.
func checkR(r float64) error {
	if !(r >= 1) || math.IsInf(r, 1) {
		return fmt.Errorf("dualgraph: r = %v not a finite value ≥ 1", r)
	}
	return nil
}

// scanPairs runs the policy pair scan region by region and returns the
// reliable and the unreliable-only edges, each with U < V. Every occupied
// region first pairs its own members, all reliable because a region's
// diameter is at most 1 (Lemma A.1). It then pairs them with the members of
// each occupied region at a positive offset: the stencil is symmetric and
// sorted, so the offsets after (0, 0) reach every pair of distinct regions
// from one side only, and each unordered vertex pair is examined once.
// Positions are read from one copy in member order, where each region's
// points are contiguous. rng is consulted only for GreyMixed, one draw per
// grey-zone pair in this visit order; the policy was validated by the
// caller.
func scanPairs(gi *geo.GridIndex, stencil []geo.CellOffset, emb []geo.Point, r float64, policy GreyPolicy, rng *xrand.Source) (gEdges, gpOnly []Edge) {
	zero := slices.Index(stencil, geo.CellOffset{})
	if zero < 0 {
		return nil, nil // an empty embedding has an empty stencil
	}
	forward := stencil[zero+1:]
	// Region ri's members are pos[off[ri]:off[ri+1]] in member order.
	off := make([]int32, gi.Len()+1)
	pos := make([]geo.Point, 0, len(emb))
	for ri := range gi.Len() {
		for _, v := range gi.MembersAt(ri) {
			pos = append(pos, emb[v])
		}
		off[ri+1] = int32(len(pos))
	}
	for ra := range gi.Len() {
		am := gi.MembersAt(ra)
		for i, u := range am {
			for _, v := range am[i+1:] {
				gEdges = append(gEdges, Edge{U: u, V: v}) // members ascend
			}
		}
		ap := pos[off[ra]:off[ra+1]]
		a := gi.RegionAt(ra)
		for _, o := range forward {
			rb, ok := gi.IndexOf(geo.RegionID{I: a.I + o.DI, J: a.J + o.DJ})
			if !ok {
				continue
			}
			bm, bp := gi.MembersAt(rb), pos[off[rb]:off[rb+1]]
			for i, u := range am {
				for j, v := range bm {
					e := Edge{U: min(u, v), V: max(u, v)}
					switch dist := geo.Dist(ap[i], bp[j]); {
					case dist <= 1:
						gEdges = append(gEdges, e)
					case dist <= r:
						switch policy {
						case GreyUnreliable:
							gpOnly = append(gpOnly, e)
						case GreyReliable:
							gEdges = append(gEdges, e)
						case GreyMixed:
							switch f := rng.Float64(); {
							case f < 2.0/3:
								gpOnly = append(gpOnly, e)
							case f < 2.0/3+1.0/6:
								gEdges = append(gEdges, e)
							}
						}
					}
				}
			}
		}
	}
	return gEdges, gpOnly
}

// Geometric derives the dual graph of an explicit embedding, every
// grey-zone pair unreliable: the r-geographic network of a caller's
// placement. It draws no randomness.
func Geometric(emb []geo.Point, r float64) (*Dual, error) {
	return buildFromEmbedding(emb, r, GreyUnreliable, nil)
}

// RandomGeometric places n vertices uniformly at random in a w × h rectangle
// and derives the dual graph from the embedding with the given grey policy.
func RandomGeometric(n int, w, h, r float64, policy GreyPolicy, rng *xrand.Source) (*Dual, error) {
	if n < 0 || !(w > 0 && w <= geo.MaxCoord) || !(h > 0 && h <= geo.MaxCoord) {
		return nil, fmt.Errorf("dualgraph: invalid geometry n=%d w=%v h=%v", n, w, h)
	}
	emb := make([]geo.Point, n)
	for i := range emb {
		emb[i] = geo.Point{X: rng.Float64() * w, Y: rng.Float64() * h}
	}
	return buildFromEmbedding(emb, r, policy, rng)
}

// SingleHopCluster places n vertices uniformly in a disc of diameter 1, so G
// is a clique: the single-hop setting used for the progress and
// acknowledgement experiments (a receiver surrounded by broadcasters).
func SingleHopCluster(n int, r float64, rng *xrand.Source) (*Dual, error) {
	if n < 0 {
		return nil, fmt.Errorf("dualgraph: negative cluster size %d", n)
	}
	emb := make([]geo.Point, n)
	for i := range emb {
		// Rejection-sample the unit-diameter disc centred at the origin.
		for {
			x, y := rng.Float64()-0.5, rng.Float64()-0.5
			if x*x+y*y <= 0.25 {
				emb[i] = geo.Point{X: x, Y: y}
				break
			}
		}
	}
	return buildFromEmbedding(emb, r, GreyUnreliable, rng)
}

// TwoTierClusters builds k clusters of m vertices each. Every cluster has
// diameter ≤ 1 (so it is a reliable clique) and consecutive clusters are
// separated by a grey-zone gap in (1, r], so all inter-cluster links are
// unreliable. This is the canonical dual graph stress topology: reliable
// islands whose only interconnection the adversary controls.
func TwoTierClusters(k, m int, r float64, rng *xrand.Source) (*Dual, error) {
	if k <= 0 || m <= 0 {
		return nil, fmt.Errorf("dualgraph: invalid cluster shape k=%d m=%d", k, m)
	}
	if r <= 1 {
		return nil, fmt.Errorf("dualgraph: TwoTierClusters needs r > 1 to host a grey gap, got r=%v", r)
	}
	// Cluster centres on a line, spaced so inter-cluster node distances fall
	// in (1, r]: cluster radius ρ, spacing s with s-2ρ > 1 and s+2ρ ≤ r.
	rho := math.Min(0.25, (r-1)/8)
	spacing := 1 + 3*rho
	emb := make([]geo.Point, 0, k*m)
	for c := 0; c < k; c++ {
		cx := float64(c) * spacing
		for i := 0; i < m; i++ {
			for {
				x, y := (rng.Float64()-0.5)*2*rho, (rng.Float64()-0.5)*2*rho
				if x*x+y*y <= rho*rho {
					emb = append(emb, geo.Point{X: cx + x, Y: y})
					break
				}
			}
		}
	}
	return buildFromEmbedding(emb, r, GreyUnreliable, rng)
}

// Line places n vertices on a line with the given spacing. Spacing ≤ 1 gives
// a connected multi-hop path in G (each vertex reliably reaches
// ⌊1/spacing⌋ neighbors to each side); grey-zone pairs become unreliable.
func Line(n int, spacing, r float64, rng *xrand.Source) (*Dual, error) {
	if n < 0 || spacing <= 0 {
		return nil, fmt.Errorf("dualgraph: invalid line n=%d spacing=%v", n, spacing)
	}
	emb := make([]geo.Point, n)
	for i := range emb {
		emb[i] = geo.Point{X: float64(i) * spacing, Y: 0}
	}
	return buildFromEmbedding(emb, r, GreyUnreliable, rng)
}

// GridLattice places vertices on a √n × √n lattice with the given spacing,
// the standard multi-hop mesh used by the abstract MAC layer experiments.
func GridLattice(side int, spacing, r float64, rng *xrand.Source) (*Dual, error) {
	if side <= 0 || spacing <= 0 {
		return nil, fmt.Errorf("dualgraph: invalid lattice side=%d spacing=%v", side, spacing)
	}
	emb := make([]geo.Point, 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			emb = append(emb, geo.Point{X: float64(i) * spacing, Y: float64(j) * spacing})
		}
	}
	return buildFromEmbedding(emb, r, GreyUnreliable, rng)
}

// Abstract builds a non-geographic dual graph directly from edge lists, for
// unit tests and adversarial shapes that need exact control of E and E′.
// reliable ∪ unreliable must form a simple graph; unreliable edges listed in
// reliable are rejected. The r-geographic check is skipped (Emb is nil).
func Abstract(n int, reliable, unreliable []Edge) (*Dual, error) {
	g, gp := NewGraph(n), NewGraph(n)
	for _, e := range reliable {
		g.AddEdge(int(e.U), int(e.V))
		gp.AddEdge(int(e.U), int(e.V))
	}
	for _, e := range unreliable {
		if g.HasEdge(int(e.U), int(e.V)) {
			return nil, fmt.Errorf("dualgraph: edge {%d,%d} listed as both reliable and unreliable", e.U, e.V)
		}
		gp.AddEdge(int(e.U), int(e.V))
	}
	// Abstract graphs have no embedding; r is set to 1 (its minimum).
	return NewDual(g, gp, nil, 1)
}

// StarWithDecoys builds the adversarial-progress shape from the paper's
// introduction: a receiver (vertex 0) with one reliable neighbor (vertex 1,
// the real sender) and nDecoys unreliable neighbors (vertices 2..) whose
// links the adversary schedules. The decoys are mutually connected by
// reliable edges so they form a legal single-hop cluster among themselves.
func StarWithDecoys(nDecoys int) (*Dual, error) {
	if nDecoys < 0 {
		return nil, fmt.Errorf("dualgraph: negative decoy count %d", nDecoys)
	}
	n := 2 + nDecoys
	var rel, unrel []Edge
	rel = append(rel, Edge{U: 0, V: 1})
	for i := 2; i < n; i++ {
		unrel = append(unrel, Edge{U: 0, V: int32(i)})
		rel = append(rel, Edge{U: 1, V: int32(i)})
		for j := i + 1; j < n; j++ {
			rel = append(rel, Edge{U: int32(i), V: int32(j)})
		}
	}
	return Abstract(n, rel, unrel)
}
