// This file adds incremental maintenance to GridIndex: Insert and Delete
// patch the CSR layout in place instead of rebuilding it, which is what
// makes mid-execution topology churn (node join/leave) affordable —
// a single-vertex patch costs a few bounded memmoves where a rebuild rescans
// every vertex. The structural contract is exact: after any sequence of
// patches the index is observably identical (Regions, members, vertex→region
// mapping, IndexOf) to BuildGridIndex over the same surviving point set;
// gridpatch_test.go pins that equivalence on randomized churn scripts.
//
// Vertices are identified by their index as everywhere else; a deleted
// vertex's slot stays allocated (of[v] = absentRegion) so the universe of
// vertex ids is stable across churn, matching the simulator's fixed process
// table. Patches that only touch an already-occupied region cost
// O(members shifted); patches that add or remove an occupied region also
// renumber the region handles — O(vertices + cells) int32 passes with no
// allocation in the steady state.

package geo

import "slices"

// absentRegion is the of-table sentinel for a vertex not currently in the
// index (deleted, or never inserted).
const absentRegion = -1

// Insert adds vertex v at point p. v must either be the next fresh vertex
// index (len(of), growing the universe) or an existing absent slot; inserting
// a present vertex panics.
func (gi *GridIndex) Insert(v int, p Point) {
	if v == len(gi.of) {
		gi.of = append(gi.of, absentRegion)
	} else if gi.of[v] >= 0 {
		panic("geo: Insert of a present vertex")
	}
	key := RegionOf(p)
	ri, ok := gi.IndexOf(key)
	if !ok {
		ri = gi.insertRegion(key)
	}
	// Splice v into its region's member block, keeping members ascending.
	pos := int(gi.off[ri])
	block := gi.members[gi.off[ri]:gi.off[ri+1]]
	k, _ := slices.BinarySearch(block, int32(v))
	pos += k
	gi.members = append(gi.members, 0)
	copy(gi.members[pos+1:], gi.members[pos:])
	gi.members[pos] = int32(v)
	for i := ri + 1; i < len(gi.off); i++ {
		gi.off[i]++
	}
	gi.of[v] = int32(ri)
}

// Delete removes vertex v from the index; its slot stays reserved so vertex
// ids remain stable. Deleting an absent vertex panics.
func (gi *GridIndex) Delete(v int) {
	ri := int(gi.of[v])
	if ri < 0 {
		panic("geo: Delete of an absent vertex")
	}
	block := gi.members[gi.off[ri]:gi.off[ri+1]]
	k, ok := slices.BinarySearch(block, int32(v))
	if !ok {
		panic("geo: member table corrupt")
	}
	pos := int(gi.off[ri]) + k
	copy(gi.members[pos:], gi.members[pos+1:])
	gi.members = gi.members[:len(gi.members)-1]
	for i := ri + 1; i < len(gi.off); i++ {
		gi.off[i]--
	}
	gi.of[v] = absentRegion
	if gi.off[ri] == gi.off[ri+1] {
		gi.removeRegion(ri)
	}
}

// insertRegion splices a newly occupied region into the sorted key table and
// returns its region index. Region indices above the insertion point shift
// by one, so the vertex→region table and (in dense mode) the cell table are
// renumbered in one pass each.
func (gi *GridIndex) insertRegion(key RegionID) int {
	ri, _ := slices.BinarySearchFunc(gi.ids, key, compareRegionIDs)
	gi.ids = append(gi.ids, RegionID{})
	copy(gi.ids[ri+1:], gi.ids[ri:])
	gi.ids[ri] = key

	// off gains a duplicate boundary at ri: the new region is empty until
	// the caller splices its first member in.
	gi.off = append(gi.off, 0)
	copy(gi.off[ri+1:], gi.off[ri:])

	for v, r := range gi.of {
		if r >= int32(ri) {
			gi.of[v] = r + 1
		}
	}
	if gi.cells != nil {
		switch gi.coverDense(key) {
		case coverKept:
			// Bounds unchanged: renumber the shifted handles in place and
			// point the new key's cell at its region.
			for c, r := range gi.cells {
				if r >= int32(ri) {
					gi.cells[c] = r + 1
				}
			}
			gi.cells[(key.I-gi.minI)*gi.nJ+(key.J-gi.minJ)] = int32(ri)
		case coverRebuilt:
			// coverDense refilled the table from the spliced key list, which
			// already carries the post-insert numbering.
		case coverDropped:
			// The grown bounding box is mostly empty space: fall back to
			// sparse (binary-search) lookups rather than allocate it.
			gi.cells = nil
		}
	}
	return ri
}

// removeRegion splices an emptied region out of the key table and renumbers
// the handles above it. Bounds are left as-is — they only ever over-cover,
// which costs nothing but slack in the dense table.
func (gi *GridIndex) removeRegion(ri int) {
	key := gi.ids[ri]
	gi.ids = append(gi.ids[:ri], gi.ids[ri+1:]...)
	gi.off = append(gi.off[:ri], gi.off[ri+1:]...)
	for v, r := range gi.of {
		if r > int32(ri) {
			gi.of[v] = r - 1
		}
	}
	if gi.cells != nil {
		gi.cells[(key.I-gi.minI)*gi.nJ+(key.J-gi.minJ)] = absentRegion
		for c, r := range gi.cells {
			if r > int32(ri) {
				gi.cells[c] = r - 1
			}
		}
	}
}

// coverDense outcomes: the existing table still covers key (caller patches it
// in place), the table was rebuilt over grown bounds from the sorted key list
// (already correct), or the grown box is too empty to keep dense.
const (
	coverKept = iota
	coverRebuilt
	coverDropped
)

// coverDense grows the dense bounding box to cover key. It is called after
// key has been spliced into ids, so a rebuild carries the final numbering.
func (gi *GridIndex) coverDense(key RegionID) int {
	minI, minJ := min(gi.minI, key.I), min(gi.minJ, key.J)
	nI := max(gi.minI+gi.nI, key.I+1) - minI
	nJ := max(gi.minJ+gi.nJ, key.J+1) - minJ
	if minI == gi.minI && minJ == gi.minJ && nI == gi.nI && nJ == gi.nJ {
		return coverKept
	}
	area := int64(nI) * int64(nJ)
	if area > max(1024, denseCellFactor*int64(max(len(gi.of), len(gi.ids)))) {
		return coverDropped
	}
	cells := make([]int32, area)
	for c := range cells {
		cells[c] = absentRegion
	}
	for ri, id := range gi.ids {
		cells[(id.I-minI)*nJ+(id.J-minJ)] = int32(ri)
	}
	gi.minI, gi.minJ, gi.nI, gi.nJ = minI, minJ, nI, nJ
	gi.cells = cells
	return coverRebuilt
}
