// This file adds node-level patching to Dual: PatchNode splices one vertex's
// reliable and unreliable adjacency out of (detach) or into (attach) a built
// dual without reconstructing it, the graph-side half of the incremental
// topology maintenance that makes mid-execution churn affordable. The
// embedding keeps one slot per vertex forever — a detached node's position
// goes stale but its id stays valid, matching the simulator's fixed process
// table — and presence is tracked explicitly so Validate can keep certifying
// patched duals: both r-geographic conditions are required of present
// vertices only.
//
// Cost model: the adjacency-list splices are O(deg) sorted-slice edits, and
// the canonical unreliable edge list is maintained incrementally — one
// order-preserving compaction pass on detach, one backward in-place merge of
// the O(deg) new edges on attach — rather than rescanned from the adjacency
// lists. The flattened forms (incidence, both CSRs) are then re-derived by
// rebuildFlat, a straight O(n + m) counting-fill pass into reused buffers.
// That pass dominates a patch but is pure sequential int32 traffic — no
// geometry, no per-edge search, no allocation in the steady state — which is
// what separates it by well over an order of magnitude from a full rebuild
// (geometric pair scan + graph construction + indexing); BenchmarkIndexPatch
// pins the ratio and TestIndexPatchSpeedup enforces the 10× floor. Unreliable
// edge indices stay in the same canonical (U, V)-lexicographic order, so
// after a patch they remain valid scheduler identifiers — but indices of
// surviving edges may shift, so stateful consumers (engine inclusion masks,
// adaptive schedulers, fade masks) must re-sync; sim.Engine.RefreshTopology
// and sched.Adaptive.Rebind are those hooks.

package dualgraph

import (
	"fmt"
	"sort"

	"lbcast/internal/geo"
)

// Present reports whether vertex v is currently attached. Duals never
// touched by PatchNode have every vertex present.
func (d *Dual) Present(v int) bool { return d.present == nil || d.present[v] }

// PatchNode detaches (p == nil) or attaches (p != nil) vertex v in place.
//
// Detach removes every edge incident to v from both G and G′ and marks v
// absent; v's embedding slot is retained. Attach places v at *p, discovers
// its neighborhood among the present vertices — distance ≤ 1 pairs become
// reliable edges, grey-zone pairs (1, r] follow policy — and marks v present.
// GreyMixed is rejected for patches: its per-pair coin belongs to the
// construction RNG stream, which a mid-run patch cannot replay.
//
// idx, when non-nil, is the caller's incremental spatial index over the
// present vertices (the churn injector's); PatchNode keeps it in sync
// (Delete on detach, Insert on attach) and uses it to bound attach-time
// neighbor discovery to the radius-r stencil. With idx == nil attach falls
// back to a linear scan over all present vertices.
//
// Consumers holding flattened views must re-sync afterwards: reflatten
// rewrites the CSR backing arrays in place.
func (d *Dual) PatchNode(v int, p *geo.Point, idx *geo.GridIndex, policy GreyPolicy) error {
	if v < 0 || v >= d.G.N() {
		return fmt.Errorf("dualgraph: PatchNode vertex %d out of range [0,%d)", v, d.G.N())
	}
	if p == nil {
		if !d.Present(v) {
			return fmt.Errorf("dualgraph: PatchNode detach of absent vertex %d", v)
		}
		d.detachNode(v)
		if idx != nil {
			idx.Delete(v)
		}
		return nil
	}

	if d.Emb == nil {
		return fmt.Errorf("dualgraph: PatchNode attach needs an embedded dual")
	}
	if d.Present(v) {
		return fmt.Errorf("dualgraph: PatchNode attach of present vertex %d (detach first)", v)
	}
	if policy == GreyMixed {
		return fmt.Errorf("dualgraph: GreyMixed grey-zone policy is not replayable for patches")
	}
	d.Emb[v] = *p
	if idx != nil {
		idx.Insert(v, *p)
	}

	d.uNew = d.uNew[:0]
	link := func(w int) {
		if w == v || !d.Present(w) {
			return
		}
		dist := geo.Dist(d.Emb[v], d.Emb[w])
		switch {
		case dist <= 1:
			d.G.AddEdge(v, w)
			d.Gp.AddEdge(v, w)
		case dist <= d.R:
			switch policy {
			case GreyUnreliable:
				d.Gp.AddEdge(v, w)
				if v < w {
					d.uNew = append(d.uNew, Edge{U: int32(v), V: int32(w)})
				} else {
					d.uNew = append(d.uNew, Edge{U: int32(w), V: int32(v)})
				}
			case GreyReliable:
				d.G.AddEdge(v, w)
				d.Gp.AddEdge(v, w)
			case GreyNone:
			}
		}
	}
	if idx != nil {
		if d.patchStencil == nil {
			d.patchStencil = geo.NeighborStencil(d.R)
		}
		idx.VisitNear(v, d.patchStencil, func(w int32) { link(int(w)) })
	} else {
		for w := 0; w < d.G.N(); w++ {
			link(w)
		}
	}
	d.present[v] = true
	d.mergeUnreliable()
	d.rebuildFlat()
	return nil
}

// mergeUnreliable splices the just-attached vertex's new unreliable edges
// into the canonical list with one backward in-place merge, preserving the
// (U, V)-lexicographic order a full rescan would produce. Duplicates are
// impossible: the vertex was absent, so no surviving edge touches it.
func (d *Dual) mergeUnreliable() {
	k := len(d.uNew)
	if k == 0 {
		return
	}
	sort.Slice(d.uNew, func(i, j int) bool {
		a, b := d.uNew[i], d.uNew[j]
		return a.U < b.U || (a.U == b.U && a.V < b.V)
	})
	old := d.unreliable
	d.unreliable = append(d.unreliable, d.uNew...)
	i, j := len(old)-1, k-1
	for w := len(d.unreliable) - 1; j >= 0; w-- {
		if i >= 0 && (old[i].U > d.uNew[j].U ||
			(old[i].U == d.uNew[j].U && old[i].V > d.uNew[j].V)) {
			d.unreliable[w] = old[i]
			i--
		} else {
			d.unreliable[w] = d.uNew[j]
			j--
		}
	}
}

// detachNode splices v's adjacency out of both graphs, drops v's unreliable
// edges with one order-preserving compaction pass, and re-derives the
// flattened forms.
func (d *Dual) detachNode(v int) {
	if d.present == nil {
		d.present = make([]bool, d.G.N())
		for i := range d.present {
			d.present[i] = true
		}
	}
	d.present[v] = false
	for _, g := range [2]*Graph{d.G, d.Gp} {
		for _, w := range g.adj[v] {
			g.adj[w] = removeSorted(g.adj[w], int32(v))
		}
		g.adj[v] = g.adj[v][:0]
	}
	vv := int32(v)
	keep := d.unreliable[:0]
	for _, e := range d.unreliable {
		if e.U != vv && e.V != vv {
			keep = append(keep, e)
		}
	}
	d.unreliable = keep
	d.rebuildFlat()
}

// removeSorted deletes v from a sorted slice if present, preserving order.
func removeSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
	}
	return s
}
