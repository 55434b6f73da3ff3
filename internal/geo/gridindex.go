package geo

import (
	"math"
	"slices"
)

// GridIndex is the dense spatial index over an embedding's grid regions.
// Occupied regions are kept as sorted keys — (I, J) lexicographic — with a
// region→members layout in compressed-sparse-row form, so every consumer
// (dual graph construction, r-geographic validation, SINR interference
// resolution) shares one O(1) vertex→region lookup and one deterministic
// region iteration order.
//
// When the embedding's bounding box is small relative to n — every geometric
// topology family in this repo — a dense cell table maps grid coordinates to
// region indices in O(1). Pathologically spread embeddings (e.g. large rings,
// adversarial placements) fall back to binary search over the sorted keys;
// Dense reports which mode is active so hot paths can pick their strategy.
type GridIndex struct {
	minI, minJ int32
	nI, nJ     int32

	ids     []RegionID // occupied regions, sorted by (I, J)
	off     []int32    // CSR offsets into members, len(ids)+1
	members []int32    // vertex indices grouped by region, ascending within each
	of      []int32    // vertex → index into ids
	cells   []int32    // dense cell → region index (-1 empty); nil in sparse mode
}

// denseCellFactor bounds the dense table at a small multiple of the vertex
// count: a bounding box with more cells than that is mostly empty space and
// binary search over the occupied keys is the better trade.
const denseCellFactor = 8

// BuildGridIndex assigns each embedded vertex to its grid region and builds
// the CSR layout. Members of each region are listed in ascending vertex
// order, matching the insertion order of the map-based index so pair-scan
// orders (and with them RNG coin sequences in the builders) are preserved.
func BuildGridIndex(emb []Point) *GridIndex {
	n := len(emb)
	gi := &GridIndex{of: make([]int32, n)}
	if n == 0 {
		gi.off = []int32{0}
		return gi
	}
	keys := make([]RegionID, n)
	minI, minJ := int32(math.MaxInt32), int32(math.MaxInt32)
	maxI, maxJ := int32(math.MinInt32), int32(math.MinInt32)
	for v, p := range emb {
		id := RegionOf(p)
		keys[v] = id
		minI, maxI = min(minI, id.I), max(maxI, id.I)
		minJ, maxJ = min(minJ, id.J), max(maxJ, id.J)
	}
	gi.minI, gi.minJ = minI, minJ
	gi.nI, gi.nJ = maxI-minI+1, maxJ-minJ+1
	area := int64(gi.nI) * int64(gi.nJ)
	if area <= max(1024, denseCellFactor*int64(n)) {
		gi.buildDense(keys, int(area))
	} else {
		gi.buildSparse(keys)
	}
	return gi
}

// buildDense lays the index out via a counting sort over the dense cell
// table: O(n + area) with one pass per step, members ascending by
// construction, region keys sorted because cells are scanned I-major.
func (gi *GridIndex) buildDense(keys []RegionID, area int) {
	counts := make([]int32, area)
	cell := make([]int32, len(keys))
	for v, id := range keys {
		c := (id.I-gi.minI)*gi.nJ + (id.J - gi.minJ)
		cell[v] = c
		counts[c]++
	}
	occupied := 0
	for _, c := range counts {
		if c > 0 {
			occupied++
		}
	}
	gi.ids = make([]RegionID, 0, occupied)
	gi.off = make([]int32, 1, occupied+1)
	gi.cells = make([]int32, area)
	// Walk cells in index order (I-major, J-minor — exactly (I, J)
	// lexicographic): assign region indices and CSR offsets; counts[c]
	// becomes the running fill cursor for cell c's member range.
	total := int32(0)
	for c := range counts {
		if counts[c] == 0 {
			gi.cells[c] = -1
			continue
		}
		gi.cells[c] = int32(len(gi.ids))
		gi.ids = append(gi.ids, RegionID{
			I: gi.minI + int32(c)/gi.nJ,
			J: gi.minJ + int32(c)%gi.nJ,
		})
		start := total
		total += counts[c]
		gi.off = append(gi.off, total)
		counts[c] = start
	}
	gi.members = make([]int32, total)
	for v := range keys {
		c := cell[v]
		gi.of[v] = gi.cells[c]
		gi.members[counts[c]] = int32(v)
		counts[c]++
	}
}

// buildSparse sorts (key, vertex) pairs instead of allocating the cell
// table: O(n log n), used when the bounding box dwarfs the vertex count.
func (gi *GridIndex) buildSparse(keys []RegionID) {
	order := make([]int32, len(keys))
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := compareRegionIDs(keys[a], keys[b]); c != 0 {
			return c
		}
		return int(a - b) // stable within a region: members stay ascending
	})
	gi.members = order
	gi.off = append(gi.off, 0)
	for i, v := range order {
		k := keys[v]
		if len(gi.ids) == 0 || gi.ids[len(gi.ids)-1] != k {
			if len(gi.ids) > 0 {
				gi.off = append(gi.off, int32(i))
			}
			gi.ids = append(gi.ids, k)
		}
		gi.of[v] = int32(len(gi.ids) - 1)
	}
	gi.off = append(gi.off, int32(len(order)))
}

// compareRegionIDs orders region keys (I, J) lexicographic — the iteration
// order every GridIndex consumer observes.
func compareRegionIDs(a, b RegionID) int {
	if a.I != b.I {
		if a.I < b.I {
			return -1
		}
		return 1
	}
	switch {
	case a.J < b.J:
		return -1
	case a.J > b.J:
		return 1
	default:
		return 0
	}
}

// Len returns the number of occupied regions.
func (gi *GridIndex) Len() int { return len(gi.ids) }

// Regions returns the occupied region IDs in sorted (I, J) order. The
// returned slice must not be modified.
func (gi *GridIndex) Regions() []RegionID { return gi.ids }

// RegionAt returns the region key at the given region index.
func (gi *GridIndex) RegionAt(ri int) RegionID { return gi.ids[ri] }

// IndexOf returns the region index of the given key and whether the region
// is occupied. O(1) in dense mode, O(log regions) in sparse mode.
func (gi *GridIndex) IndexOf(id RegionID) (int, bool) {
	if gi.cells != nil {
		i, j := id.I-gi.minI, id.J-gi.minJ
		if i < 0 || i >= gi.nI || j < 0 || j >= gi.nJ {
			return -1, false
		}
		ri := gi.cells[i*gi.nJ+j]
		return int(ri), ri >= 0
	}
	ri, ok := slices.BinarySearchFunc(gi.ids, id, compareRegionIDs)
	if !ok {
		return -1, false
	}
	return ri, true
}

// MembersAt returns the vertices of the region at the given region index, in
// ascending vertex order. The returned slice must not be modified.
func (gi *GridIndex) MembersAt(ri int) []int32 {
	return gi.members[gi.off[ri]:gi.off[ri+1]]
}

// VisitNear applies fn to every vertex in the stencil neighborhood of
// vertex u (u itself included), in stencil-then-ascending-member order, a
// deterministic order consumers may draw RNG coins in. The dual graph
// builder does not use it: it scans region pairs rather than each vertex's
// neighborhood.
func (gi *GridIndex) VisitNear(u int, stencil []CellOffset, fn func(v int32)) {
	center := gi.RegionOfVertex(u)
	for _, o := range stencil {
		ri, ok := gi.IndexOf(RegionID{I: center.I + o.DI, J: center.J + o.DJ})
		if !ok {
			continue
		}
		for _, v := range gi.members[gi.off[ri]:gi.off[ri+1]] {
			fn(v)
		}
	}
}

// RegionOfVertex returns the region key of vertex v.
func (gi *GridIndex) RegionOfVertex(v int) RegionID { return gi.ids[gi.of[v]] }

// CellOffset is one entry of a neighbor-region stencil: the grid-coordinate
// displacement from a center region.
type CellOffset struct {
	DI, DJ int32
}

// NeighborStencil precomputes the region displacements within distance r:
// exactly the offsets o with RegionDist(c, c+o) ≤ r for any region c,
// including the zero offset. Any pair of points within Euclidean distance r
// lies in regions related by a stencil offset (RegionDist lower-bounds point
// distance), so scanning the stencil visits every candidate pair while
// skipping the corner cells a square window would waste lookups on.
//
// Offsets are sorted (DI, DJ) lexicographic — the same order as the square
// di/dj window scans the stencil replaces, so pair visit orders (and the
// builders' RNG coin sequences) are unchanged. Its size grows as r²; a scan
// over a known index should use GridIndex.Stencil, which caps it.
func NeighborStencil(r float64) []CellOffset {
	if r < 0 {
		return nil
	}
	// RegionDist between cells offset by (di, dj) is
	// side·hypot(max(|di|−1,0), max(|dj|−1,0)), so |di| ≤ r/side + 1.
	w := int32(math.Floor(r/RegionSide)) + 1
	return boxStencil(r, w, w)
}

// boxStencil lists the offsets within distance r in the window |DI| ≤ wi,
// |DJ| ≤ wj, in (DI, DJ) order.
func boxStencil(r float64, wi, wj int32) []CellOffset {
	out := make([]CellOffset, 0, (2*int(wi)+1)*(2*int(wj)+1))
	for di := -wi; di <= wi; di++ {
		for dj := -wj; dj <= wj; dj++ {
			if RegionDist(RegionID{}, RegionID{I: di, J: dj}) <= r {
				out = append(out, CellOffset{DI: di, DJ: dj})
			}
		}
	}
	return out
}

// Stencil is NeighborStencil(r) without the offsets that cannot relate two
// of the index's occupied regions: no offset exceeds the bounding box, and
// when the box holds more cells than there are pairs of occupied regions,
// only the offsets between occupied regions remain. The offsets dropped
// hold no points, so a scan visits the same pairs in the same order as with
// the full stencil, while the stencil's size stays bounded by the embedding
// (the full stencil's grows as r², without limit).
func (gi *GridIndex) Stencil(r float64) []CellOffset {
	if !(r >= 0) {
		return nil
	}
	reach := math.Floor(r/RegionSide) + 1 // as in NeighborStencil
	wi := int32(min(reach, float64(max(gi.nI-1, 0))))
	wj := int32(min(reach, float64(max(gi.nJ-1, 0))))
	regions := int64(len(gi.ids))
	if int64(2*wi+1)*int64(2*wj+1) <= regions*regions {
		return boxStencil(r, wi, wj)
	}
	var out []CellOffset
	for _, a := range gi.ids {
		for _, b := range gi.ids {
			o := CellOffset{DI: b.I - a.I, DJ: b.J - a.J}
			if RegionDist(RegionID{}, RegionID{I: o.DI, J: o.DJ}) <= r {
				out = append(out, o)
			}
		}
	}
	slices.SortFunc(out, func(x, y CellOffset) int {
		return compareRegionIDs(RegionID{I: x.DI, J: x.DJ}, RegionID{I: y.DI, J: y.DJ})
	})
	return slices.Compact(out)
}
