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
// Cost model: the adjacency-list splices are O(deg) sorted-slice edits.
// The unreliable incidence is then spliced in place (spliceOut, spliceIn)
// with one block move per row the patch touches, so O(deg) copy calls, and
// number, the pass construction numbers the incidence with, renumbers the
// edges. These are sequential int32 passes — no geometry, no per-edge
// search, no allocation in the steady state — which is what separates a
// patch by well over an order of magnitude from a full rebuild (geometric
// pair scan + graph construction + numbering); BenchmarkIndexPatch measures
// the patch and TestIndexPatchSpeedup enforces the 10× floor. Unreliable
// edge indices stay in the same canonical (U, V)-lexicographic order, so
// after a patch they remain valid scheduler identifiers — but indices of
// surviving edges may shift, so stateful consumers (engine inclusion
// masks, adaptive schedulers, fade masks) must re-sync;
// sim.Engine.RefreshTopology and sched.Adaptive.Rebind are those hooks.

package dualgraph

import (
	"fmt"
	"slices"
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
// Either way G's and G′'s rows are edited in place, and the unreliable
// incidence is spliced in place and renumbered. Consumers holding the
// incidence's slice headers must re-sync afterwards: the splices rewrite
// its backing arrays in place and may reallocate them.
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
				d.uNew = append(d.uNew, int32(w))
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
	if len(d.uNew) > 0 {
		slices.Sort(d.uNew)
		d.spliceIn(v, d.uNew)
		d.number(d.nextScratch())
	}
	return nil
}

// detachNode splices v's adjacency out of both graphs and v's unreliable
// rows out of the incidence, and renumbers the incidence.
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
	if row := d.uCSR.Peers[d.uCSR.Off[v]:d.uCSR.Off[v+1]]; len(row) > 0 {
		d.uNew = append(d.uNew[:0], row...)
		d.spliceOut(v, d.uNew)
		d.number(d.nextScratch())
	}
}

// spliceOut drops vertex v from the unreliable rows in place: v's own row,
// and v's arc in the row of each of its peers (v's old row, ascending,
// copied out of the incidence). Walking the touched rows in ascending
// order, the arcs between two drops move down in one block, and the offsets
// shift down by the arcs dropped before them. The edge indices are left for
// number to reassign.
func (d *Dual) spliceOut(v int, peers []int32) {
	uc := &d.uCSR
	rd, wr, w, dropped := -1, -1, 0, 0
	for i, vDone := 0, false; i < len(peers) || !vDone; {
		t := v
		if !vDone && (i == len(peers) || int(peers[i]) > v) {
			vDone = true
		} else {
			t = int(peers[i])
			i++
		}
		a, b := int(uc.Off[t]), int(uc.Off[t+1])
		if t != v {
			k, _ := slices.BinarySearch(uc.Peers[a:b], int32(v))
			a += k
			b = a + 1
		}
		if rd < 0 {
			rd, wr, w = a, a, t+1
		}
		copy(uc.Peers[wr:], uc.Peers[rd:a])
		wr += a - rd
		for ; w <= t; w++ {
			uc.Off[w] -= int32(dropped)
		}
		dropped += b - a
		rd = b
	}
	end := len(uc.Peers)
	copy(uc.Peers[wr:], uc.Peers[rd:end])
	for ; w < len(uc.Off); w++ {
		uc.Off[w] -= int32(dropped)
	}
	uc.Peers, uc.Edges = uc.Peers[:end-dropped], uc.Edges[:end-dropped]
}

// spliceIn adds vertex v, absent until now, to the unreliable rows in
// place: v's row becomes peers (ascending) and v joins each peer's row in
// order. The rows grow by the 2·len(peers) new arcs; walking the touched
// rows in descending order, the arcs between two insertions move up in one
// block, and the offsets shift up by the arcs inserted before them. The
// edge indices are left for number to reassign.
func (d *Dual) spliceIn(v int, peers []int32) {
	uc := &d.uCSR
	end, ins := len(uc.Peers), 2*len(peers)
	uc.Peers = slices.Grow(uc.Peers, ins)[:end+ins]
	uc.Edges = slices.Grow(uc.Edges, ins)[:end+ins]
	rd, wr, hi := end, end+ins, len(uc.Off)-1
	for i, vDone := len(peers)-1, false; i >= 0 || !vDone; {
		t := v
		if !vDone && (i < 0 || int(peers[i]) < v) {
			vDone = true
		} else {
			t = int(peers[i])
			i--
		}
		a := int(uc.Off[t])
		if t != v {
			k, _ := slices.BinarySearch(uc.Peers[a:uc.Off[t+1]], int32(v))
			a += k
		}
		for ; hi > t; hi-- {
			uc.Off[hi] += int32(ins)
		}
		wr -= rd - a
		copy(uc.Peers[wr:], uc.Peers[a:rd])
		rd = a
		if t == v {
			wr -= len(peers)
			ins -= len(peers)
			copy(uc.Peers[wr:], peers)
		} else {
			wr--
			ins--
			uc.Peers[wr] = int32(v)
		}
	}
}

// nextScratch returns number's per-vertex scratch, kept across patches.
func (d *Dual) nextScratch() []int32 {
	if len(d.next) < d.G.N() {
		d.next = make([]int32, d.G.N())
	}
	return d.next
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
