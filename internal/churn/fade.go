package churn

import (
	"fmt"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
)

// FadeScheduler layers region-level fading epochs over a base link
// scheduler: while a fade is active, every unreliable edge with an endpoint
// in a faded grid region is excluded from the communication graph no matter
// what the base scheduler answers. Reliable (G) edges are untouched — the
// dual-graph model guarantees them, so the adversary's entire surface is
// the grey-zone set E′∖E, and that is exactly the surface fading controls.
//
// The per-edge faded mask is rebuilt only when the set of active fades
// changes (Advance, called by the injector in BeforeRound, single-threaded)
// or when a topology patch renumbers the unreliable edges (Rebind, called
// by the injector after a Leave/Join). All query methods — Included,
// IncludedBatch, Uniform, IncludedFor — are read-only for the round, so
// the engine's parallel scatter may issue them concurrently, and all four
// answer consistently, as the engine's scheduler contracts require.
//
// The schedule stays oblivious whenever the base scheduler is: faded
// rounds and regions are fixed by the plan before the execution starts.
type FadeScheduler struct {
	inner completeScheduler
	aware sim.TransmitterAware // non-nil when inner is adaptive
	dual  *dualgraph.Dual
	fades []Fade

	faded    []bool // per unreliable edge index; valid for the current active set
	anyFaded bool
	active   []int // indices into fades active for the last Advance round
	scratch  []int
}

// completeScheduler is the base scheduler surface FadeScheduler calls,
// the one sim.New requires of every link scheduler.
type completeScheduler interface {
	sim.BatchLinkScheduler
	sim.SparseLinkScheduler
}

// NewFadeScheduler wraps the base scheduler (nil means sched.Never: no
// unreliable edge included) with the plan's fade epochs over the given
// dual graph. The base must be complete, as sim.New requires of the
// wrapper. The wrapper starts with no active fade; the injector advances
// it each round.
func NewFadeScheduler(inner sim.LinkScheduler, d *dualgraph.Dual, fades []Fade) (*FadeScheduler, error) {
	if inner == nil {
		inner = sched.Never{}
	}
	c, ok := inner.(completeScheduler)
	if !ok {
		return nil, fmt.Errorf("churn: fade base scheduler %T lacks IncludedBatch, Uniform or IncludedFor", inner)
	}
	f := &FadeScheduler{inner: c, dual: d, fades: append([]Fade(nil), fades...)}
	f.aware, _ = inner.(sim.TransmitterAware)
	return f, nil
}

// Advance recomputes the active fade set for round t and, if it changed,
// rebuilds the per-edge faded mask. Must be called between rounds (the
// injector calls it from BeforeRound); query methods never mutate.
func (f *FadeScheduler) Advance(t int) {
	f.scratch = f.scratch[:0]
	for i, fd := range f.fades {
		if fd.Start <= t && t < fd.End {
			f.scratch = append(f.scratch, i)
		}
	}
	if intsEqual(f.scratch, f.active) {
		return
	}
	f.active = append(f.active[:0], f.scratch...)
	f.rebuild()
}

// Rebind rebuilds the faded mask against the current unreliable edge
// numbering. Must be called after every dual-graph patch: PatchNode
// renumbers the edge indices the mask is keyed by.
func (f *FadeScheduler) Rebind() { f.rebuild() }

// rebuild recomputes faded[] for the current active set over the current
// unreliable incidence. An edge is faded iff an endpoint's region is, so
// each node in a faded region marks the edges of its incidence row: one
// region lookup per node with unreliable edges.
func (f *FadeScheduler) rebuild() {
	m := f.dual.UnreliableEdgeCount()
	if cap(f.faded) < m {
		f.faded = make([]bool, m)
	}
	f.faded = f.faded[:m]
	clear(f.faded)
	f.anyFaded = false
	if len(f.active) == 0 {
		return
	}
	regions := make(map[geo.RegionID]struct{})
	for _, i := range f.active {
		for _, r := range f.fades[i].Regions {
			regions[r] = struct{}{}
		}
	}
	uc := f.dual.UnreliableCSR()
	for w := range len(uc.Off) - 1 {
		a, b := uc.Off[w], uc.Off[w+1]
		if a == b {
			continue
		}
		if _, ok := regions[geo.RegionOf(f.dual.Emb[w])]; ok {
			for _, e := range uc.Edges[a:b] {
				f.faded[e] = true
			}
			f.anyFaded = true
		}
	}
}

// isFaded reports whether edge e is suppressed this round.
func (f *FadeScheduler) isFaded(e int) bool {
	return f.anyFaded && e >= 0 && e < len(f.faded) && f.faded[e]
}

// Included implements sim.LinkScheduler.
func (f *FadeScheduler) Included(t, edge int) bool {
	return !f.isFaded(edge) && f.inner.Included(t, edge)
}

// IncludedBatch implements sim.BatchLinkScheduler.
func (f *FadeScheduler) IncludedBatch(t int, mask []bool) {
	f.inner.IncludedBatch(t, mask)
	if f.anyFaded {
		for i := range mask {
			if i < len(f.faded) && f.faded[i] {
				mask[i] = false
			}
		}
	}
}

// Uniform implements sim.SparseLinkScheduler: a round with active fading is
// edge-dependent unless the base round is all-excluded anyway.
func (f *FadeScheduler) Uniform(t int) (bool, bool) {
	v, ok := f.inner.Uniform(t)
	if !f.anyFaded {
		return v, ok
	}
	if ok && !v {
		return false, true
	}
	return false, false
}

// IncludedFor implements sim.SparseLinkScheduler. Safe for concurrent calls
// with distinct out buffers, as the engine's parallel scatter requires.
func (f *FadeScheduler) IncludedFor(t int, edges []int32, out []bool) {
	f.inner.IncludedFor(t, edges, out)
	if f.anyFaded {
		for i, e := range edges {
			if f.isFaded(int(e)) {
				out[i] = false
			}
		}
	}
}

// ObserveTransmitters implements sim.TransmitterAware by forwarding to an
// adaptive base scheduler, so wrapping does not blind it.
func (f *FadeScheduler) ObserveTransmitters(t int, transmitting []uint8) {
	if f.aware != nil {
		f.aware.ObserveTransmitters(t, transmitting)
	}
}

// intsEqual reports slice equality.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	_ completeScheduler    = (*FadeScheduler)(nil)
	_ sim.TransmitterAware = (*FadeScheduler)(nil)
)
