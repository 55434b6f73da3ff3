package geo

import "math"

// RegionGraph is the graph G_{R,r} over occupied regions: two distinct
// regions are adjacent exactly when some pair of their points lies within
// distance r (Appendix A.1).
type RegionGraph struct {
	R       float64
	ids     []RegionID
	pos     map[RegionID]int
	adj     [][]int
	hopsMax int
}

// BuildRegionGraph constructs G_{R,r} over the given occupied regions.
// r must be at least 1 per the model definition.
func BuildRegionGraph(ids []RegionID, r float64) *RegionGraph {
	g := &RegionGraph{
		R:   r,
		ids: append([]RegionID(nil), ids...),
		pos: make(map[RegionID]int, len(ids)),
		adj: make([][]int, len(ids)),
	}
	for i, id := range g.ids {
		g.pos[id] = i
	}
	// Two regions can be adjacent only if their grid coordinates differ by
	// at most ceil(r/side)+1 cells, so scan a bounded window instead of all
	// pairs. With side ½ the window radius is 2r+1 cells.
	window := int32(math.Ceil(r/RegionSide)) + 1
	for i, a := range g.ids {
		for dj := -window; dj <= window; dj++ {
			for di := -window; di <= window; di++ {
				if di == 0 && dj == 0 {
					continue
				}
				b := RegionID{I: a.I + di, J: a.J + dj}
				j, ok := g.pos[b]
				if !ok || j <= i {
					continue // each unordered pair handled once
				}
				if RegionDist(a, b) <= r {
					g.adj[i] = append(g.adj[i], j)
					g.adj[j] = append(g.adj[j], i)
				}
			}
		}
	}
	return g
}

// Len returns the number of occupied regions.
func (g *RegionGraph) Len() int { return len(g.ids) }

// ID returns the region at the given internal index.
func (g *RegionGraph) ID(i int) RegionID { return g.ids[i] }

// IndexOf returns the internal index of a region and whether it exists.
func (g *RegionGraph) IndexOf(id RegionID) (int, bool) {
	i, ok := g.pos[id]
	return i, ok
}

// Neighbors returns the internal indices of the regions adjacent to region
// index i in G_{R,r}. The returned slice must not be modified.
func (g *RegionGraph) Neighbors(i int) []int { return g.adj[i] }

// Degree returns the number of neighbors of region index i.
func (g *RegionGraph) Degree(i int) int { return len(g.adj[i]) }

// WithinHops returns the internal indices of all regions whose hop distance
// from region index i in G_{R,r} is at most h, including i itself
// (hop distance 0). This is the "neighboring regions to distance h" notion
// used throughout Appendix B.
func (g *RegionGraph) WithinHops(i, h int) []int {
	if h < 0 {
		return nil
	}
	dist := make(map[int]int, 16)
	dist[i] = 0
	frontier := []int{i}
	out := []int{i}
	for d := 1; d <= h && len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.adj[u] {
				if _, seen := dist[v]; seen {
					continue
				}
				dist[v] = d
				next = append(next, v)
				out = append(out, v)
			}
		}
		frontier = next
	}
	return out
}

// FBound returns the Lemma A.1 bound f(h) = c₁·r²·h² with c₁ chosen for the
// side-½ grid. A disc of radius r·h+√2/2 around a region covers every region
// within h hops; it intersects at most π(rh+1)²/side² ≤ 4π(rh+1)² squares.
// For h ≥ 1 and r ≥ 1 this is at most 51·r²·h², so c₁ = 51 witnesses the
// lemma. (Any constant works; tests check the counted regions never exceed
// this bound.)
func FBound(r float64, h int) float64 {
	if h == 0 {
		return 1
	}
	const c1 = 51
	return c1 * r * r * float64(h) * float64(h)
}

// CheckFBounded verifies the second f-boundedness condition against FBound
// for all regions up to maxHops, returning the first violation found.
func (g *RegionGraph) CheckFBounded(maxHops int) (okAll bool, region RegionID, h, count int) {
	for i := 0; i < g.Len(); i++ {
		for hh := 0; hh <= maxHops; hh++ {
			c := len(g.WithinHops(i, hh))
			if float64(c) > FBound(g.R, hh) {
				return false, g.ids[i], hh, c
			}
		}
	}
	return true, RegionID{}, 0, 0
}
