package geo

import (
	"fmt"
	"slices"
	"testing"

	"lbcast/internal/xrand"
)

// checkPatched verifies a patched index against two oracles: the internal CSR
// invariants, and a from-scratch reconstruction of the region→members
// structure over the surviving point set. pos/present describe the ground
// truth; pos[v] is only meaningful where present[v].
func checkPatched(t *testing.T, gi *GridIndex, pos []Point, present []bool) {
	t.Helper()

	// Ground truth: region → ascending surviving members.
	want := map[RegionID][]int32{}
	n := 0
	for v := range pos {
		if present[v] {
			k := RegionOf(pos[v])
			want[k] = append(want[k], int32(v))
			n++
		}
	}
	keys := make([]RegionID, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareRegionIDs)

	if gi.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d occupied regions", gi.Len(), len(keys))
	}
	if !slices.Equal(gi.Regions(), keys) {
		t.Fatalf("Regions() = %v, want %v", gi.Regions(), keys)
	}
	total := 0
	for ri, k := range keys {
		got := gi.MembersAt(ri)
		if !slices.Equal(got, want[k]) {
			t.Fatalf("MembersAt(%d) [%v] = %v, want %v", ri, k, got, want[k])
		}
		if got2 := members(gi, k); !slices.Equal(got2, want[k]) {
			t.Fatalf("Members(%v) = %v, want %v (IndexOf inconsistent)", k, got2, want[k])
		}
		total += len(got)
	}
	if total != n || len(gi.members) != n {
		t.Fatalf("member count %d (slice %d), want %d", total, len(gi.members), n)
	}

	// Vertex→region table.
	for v := range pos {
		if !present[v] {
			if contains(gi, v) {
				t.Fatalf("Contains(%d) = true for deleted vertex", v)
			}
			continue
		}
		if !contains(gi, v) {
			t.Fatalf("Contains(%d) = false for present vertex", v)
		}
		if got := gi.RegionOfVertex(v); got != RegionOf(pos[v]) {
			t.Fatalf("RegionOfVertex(%d) = %v, want %v", v, got, RegionOf(pos[v]))
		}
	}

	// CSR invariants: off monotone and consistent with Len.
	if len(gi.off) != gi.Len()+1 || gi.off[0] != 0 || int(gi.off[gi.Len()]) != n {
		t.Fatalf("off table inconsistent: len %d, first %d, last %d (n=%d)",
			len(gi.off), gi.off[0], gi.off[gi.Len()], n)
	}
	// Dense cell table, when active, must agree with IndexOf ground truth.
	if gi.Dense() {
		minI, minJ, nI, nJ := gi.Bounds()
		for ri, k := range keys {
			if k.I < minI || k.I >= minI+nI || k.J < minJ || k.J >= minJ+nJ {
				t.Fatalf("occupied region %v outside dense bounds", k)
			}
			if c := gi.cells[(k.I-minI)*nJ+(k.J-minJ)]; c != int32(ri) {
				t.Fatalf("cells[%v] = %d, want %d", k, c, ri)
			}
		}
		occ := 0
		for _, c := range gi.cells {
			if c >= 0 {
				occ++
			}
		}
		if occ != len(keys) {
			t.Fatalf("dense table holds %d occupied cells, want %d", occ, len(keys))
		}
	}

	// Cross-check against a genuine BuildGridIndex rebuild of the survivors
	// (compacted ids): region keys and per-region member counts must match
	// after translating through the compaction map.
	comp := make([]Point, 0, n)
	for v := range pos {
		if present[v] {
			comp = append(comp, pos[v])
		}
	}
	rb := BuildGridIndex(comp)
	if !slices.Equal(rb.Regions(), gi.Regions()) {
		t.Fatalf("rebuild regions %v != patched regions %v", rb.Regions(), gi.Regions())
	}
	for ri := range keys {
		if len(rb.MembersAt(ri)) != len(gi.MembersAt(ri)) {
			t.Fatalf("rebuild region %d has %d members, patched has %d",
				ri, len(rb.MembersAt(ri)), len(gi.MembersAt(ri)))
		}
	}
}

// TestGridPatchRandomChurn drives randomized insert/delete/move scripts and
// checks full structural equivalence with a rebuild after every operation.
func TestGridPatchRandomChurn(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := xrand.New(seed)
			const n0 = 120
			pos := make([]Point, n0)
			present := make([]bool, n0)
			for v := range pos {
				pos[v] = Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}
				present[v] = true
			}
			gi := BuildGridIndex(pos)
			checkPatched(t, gi, pos, present)

			for op := 0; op < 400; op++ {
				switch rng.Intn(4) {
				case 0: // delete a random present vertex
					v := rng.Intn(len(pos))
					for !present[v] {
						v = rng.Intn(len(pos))
					}
					gi.Delete(v)
					present[v] = false
				case 1: // re-insert an absent vertex, or append a fresh one
					v := -1
					for u := range present {
						if !present[u] && rng.Intn(3) == 0 {
							v = u
							break
						}
					}
					p := Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}
					if v < 0 {
						v = len(pos)
						pos = append(pos, p)
						present = append(present, false)
					} else {
						pos[v] = p
					}
					gi.Insert(v, p)
					present[v] = true
				case 2: // small move (often same region)
					v := rng.Intn(len(pos))
					for !present[v] {
						v = rng.Intn(len(pos))
					}
					p := Point{X: pos[v].X + rng.Float64()*0.3 - 0.15, Y: pos[v].Y + rng.Float64()*0.3 - 0.15}
					gi.Delete(v)
					gi.Insert(v, p)
					pos[v] = p
				default: // long-range move, occasionally outside the original box
					v := rng.Intn(len(pos))
					for !present[v] {
						v = rng.Intn(len(pos))
					}
					p := Point{X: rng.Float64()*8 - 1, Y: rng.Float64()*8 - 1}
					gi.Delete(v)
					gi.Insert(v, p)
					pos[v] = p
				}
				checkPatched(t, gi, pos, present)
			}
		})
	}
}

// TestGridPatchFromEmpty grows an index from an empty build, exercising the
// fresh-vertex append path and first-region creation.
func TestGridPatchFromEmpty(t *testing.T) {
	gi := BuildGridIndex(nil)
	var pos []Point
	var present []bool
	rng := xrand.New(9)
	for v := 0; v < 60; v++ {
		p := Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}
		gi.Insert(v, p)
		pos = append(pos, p)
		present = append(present, true)
		checkPatched(t, gi, pos, present)
	}
	for v := 0; v < 60; v += 2 {
		gi.Delete(v)
		present[v] = false
		checkPatched(t, gi, pos, present)
	}
}

// TestGridPatchBoundsGrowth pins the dense-table behavior when patches land
// outside the built bounding box: nearby growth rebuilds the dense table,
// a pathologically far insert drops to sparse mode, and lookups stay correct
// throughout.
func TestGridPatchBoundsGrowth(t *testing.T) {
	rng := xrand.New(11)
	pos := make([]Point, 80)
	present := make([]bool, 80)
	for v := range pos {
		pos[v] = Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		present[v] = true
	}
	gi := BuildGridIndex(pos)
	if !gi.Dense() {
		t.Fatalf("expected a dense build for a compact placement")
	}

	// Modest growth: one region outside the box. Dense should survive.
	p := Point{X: 5.2, Y: 5.2}
	pos = append(pos, p)
	present = append(present, true)
	gi.Insert(len(pos)-1, p)
	checkPatched(t, gi, pos, present)
	if !gi.Dense() {
		t.Fatalf("modest bounds growth should keep the dense table")
	}

	// Pathological growth: a point hundreds of regions away. The dense table
	// must be dropped, not allocated over the huge empty box.
	far := Point{X: 500, Y: 500}
	pos = append(pos, far)
	present = append(present, true)
	gi.Insert(len(pos)-1, far)
	checkPatched(t, gi, pos, present)
	if gi.Dense() {
		t.Fatalf("pathological bounds growth must fall back to sparse lookups")
	}

	// And the index keeps working (and stays correct) in sparse mode.
	gi.Delete(len(pos) - 1)
	present[len(pos)-1] = false
	checkPatched(t, gi, pos, present)
}
