package churn

import (
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
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
	inner  sim.LinkScheduler
	batch  sim.BatchLinkScheduler  // non-nil when inner supports batch fills
	sparse sim.SparseLinkScheduler // non-nil when inner supports subset queries
	aware  sim.TransmitterAware    // non-nil when inner is adaptive
	dual   *dualgraph.Dual
	fades  []Fade

	faded    []bool // per unreliable edge index; valid for the current active set
	anyFaded bool
	active   []int // indices into fades active for the last Advance round
	scratch  []int
}

// NewFadeScheduler wraps the base scheduler (nil means sched.Never
// semantics: no unreliable edge included) with the plan's fade epochs over
// the given dual graph. The wrapper starts with no active fade; the
// injector advances it each round.
func NewFadeScheduler(inner sim.LinkScheduler, d *dualgraph.Dual, fades []Fade) *FadeScheduler {
	f := &FadeScheduler{inner: inner, dual: d, fades: append([]Fade(nil), fades...)}
	f.batch, _ = inner.(sim.BatchLinkScheduler)
	f.sparse, _ = inner.(sim.SparseLinkScheduler)
	f.aware, _ = inner.(sim.TransmitterAware)
	return f
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

// Rebind rebuilds the faded mask against the current unreliable edge list.
// Must be called after every dual-graph patch: PatchNode renumbers the
// edge indices the mask is keyed by.
func (f *FadeScheduler) Rebind() { f.rebuild() }

// rebuild recomputes faded[] for the current active set over the current
// edge list.
func (f *FadeScheduler) rebuild() {
	edges := f.dual.UnreliableEdges()
	if cap(f.faded) < len(edges) {
		f.faded = make([]bool, len(edges))
	}
	f.faded = f.faded[:len(edges)]
	f.anyFaded = false
	if len(f.active) == 0 {
		for i := range f.faded {
			f.faded[i] = false
		}
		return
	}
	regions := make(map[geo.RegionID]struct{})
	for _, i := range f.active {
		for _, r := range f.fades[i].Regions {
			regions[r] = struct{}{}
		}
	}
	emb := f.dual.Emb
	for i, e := range edges {
		_, fu := regions[geo.RegionOf(emb[e.U])]
		_, fv := regions[geo.RegionOf(emb[e.V])]
		f.faded[i] = fu || fv
		f.anyFaded = f.anyFaded || f.faded[i]
	}
}

// isFaded reports whether edge e is suppressed this round.
func (f *FadeScheduler) isFaded(e int) bool {
	return f.anyFaded && e >= 0 && e < len(f.faded) && f.faded[e]
}

// Included implements sim.LinkScheduler.
func (f *FadeScheduler) Included(t, edge int) bool {
	if f.isFaded(edge) {
		return false
	}
	return f.inner != nil && f.inner.Included(t, edge)
}

// IncludedBatch implements sim.BatchLinkScheduler.
func (f *FadeScheduler) IncludedBatch(t int, mask []bool) {
	switch {
	case f.inner == nil:
		for i := range mask {
			mask[i] = false
		}
		return
	case f.batch != nil:
		f.batch.IncludedBatch(t, mask)
	default:
		for i := range mask {
			mask[i] = f.inner.Included(t, i)
		}
	}
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
	if f.inner == nil {
		return false, true
	}
	var v, ok bool
	if f.sparse != nil {
		v, ok = f.sparse.Uniform(t)
	}
	if !f.anyFaded {
		return v, ok && f.sparse != nil
	}
	if ok && !v {
		return false, true
	}
	return false, false
}

// IncludedFor implements sim.SparseLinkScheduler. Safe for concurrent calls
// with distinct out buffers, as the engine's parallel scatter requires.
func (f *FadeScheduler) IncludedFor(t int, edges []int32, out []bool) {
	if f.inner == nil {
		for i := range edges {
			out[i] = false
		}
		return
	}
	if f.sparse != nil {
		f.sparse.IncludedFor(t, edges, out)
	} else {
		for i, e := range edges {
			out[i] = f.inner.Included(t, int(e))
		}
	}
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
	_ sim.BatchLinkScheduler  = (*FadeScheduler)(nil)
	_ sim.SparseLinkScheduler = (*FadeScheduler)(nil)
	_ sim.TransmitterAware    = (*FadeScheduler)(nil)
)
