package geo

import "slices"

// RegionIndex groups an embedding's vertices by grid region. It is the
// concrete form of the partition R restricted to occupied regions (empty
// regions play no role in any argument about nodes).
//
// Production paths use the dense GridIndex; RegionIndex is retained as the
// straightforward map-based reference the GridIndex tests check equivalence
// against. Keep the two behaviorally aligned (same member order, same
// sorted Regions order).
type RegionIndex struct {
	// Members maps each occupied region to the vertex indices embedded in it.
	Members map[RegionID][]int
	// Of maps each vertex index to its region.
	Of []RegionID
}

// BuildRegionIndex assigns each embedded vertex to its grid region.
func BuildRegionIndex(emb []Point) *RegionIndex {
	idx := &RegionIndex{
		Members: make(map[RegionID][]int),
		Of:      make([]RegionID, len(emb)),
	}
	for v, p := range emb {
		id := RegionOf(p)
		idx.Of[v] = id
		idx.Members[id] = append(idx.Members[id], v)
	}
	return idx
}

// Regions returns the occupied region IDs in sorted (I, J) order — the same
// deterministic order GridIndex.Regions iterates, so downstream structures
// (region graphs, visualisations) are reproducible across runs.
func (idx *RegionIndex) Regions() []RegionID {
	out := make([]RegionID, 0, len(idx.Members))
	for id := range idx.Members {
		out = append(out, id)
	}
	slices.SortFunc(out, compareRegionIDs)
	return out
}
