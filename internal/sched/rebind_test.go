package sched

import (
	"testing"

	"lbcast/internal/dualgraph"
)

// TestAdaptiveRebindAfterPatch is the regression test for stale adversary
// caches across topology patches: unreliable edge indices are renumbered by
// PatchNode, so an unrebound Adaptive aims its manufactured collision at an
// edge that no longer exists (or worse, at a different edge that inherited
// the index). Rebind must bring the adversary back in line with a freshly
// constructed one.
func TestAdaptiveRebindAfterPatch(t *testing.T) {
	// Target 0 with reliable neighbor 1 and unreliable edges {0,2} (index 0)
	// and {0,3} (index 1).
	d, err := dualgraph.Abstract(4,
		[]dualgraph.Edge{{U: 0, V: 1}},
		[]dualgraph.Edge{{U: 0, V: 2}, {U: 0, V: 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: with node 1 (reliable) and node 3 transmitting, the adversary
	// includes edge {0,3} — index 1 before the patch.
	tx := []uint8{0, 1, 0, 1}
	a.ObserveTransmitters(1, tx)
	if !a.Included(1, 1) || a.Included(1, 0) {
		t.Fatalf("pre-patch adversary should include edge 1 only")
	}

	// Node 2 leaves: edge {0,2} disappears and {0,3} is renumbered to 0.
	if err := d.PatchNode(2, nil, nil, dualgraph.GreyUnreliable); err != nil {
		t.Fatal(err)
	}
	if got := d.UnreliableEdgeCount(); got != 1 {
		t.Fatalf("patched dual has %d unreliable edges, want 1", got)
	}

	// The stale cache still aims at the old index.
	a.ObserveTransmitters(2, tx)
	if a.Included(2, 0) {
		t.Fatalf("stale adversary accidentally correct — test topology no longer exercises the bug")
	}

	if err := a.Rebind(d); err != nil {
		t.Fatal(err)
	}
	a.ObserveTransmitters(3, tx)
	if !a.Included(3, 0) {
		t.Fatalf("rebound adversary must include the renumbered edge 0")
	}
	if a.Included(3, 1) {
		t.Fatalf("rebound adversary still references the removed edge index 1")
	}

	// The rebound adversary must agree edge-for-edge with a freshly built one.
	fresh, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 4; round < 8; round++ {
		a.ObserveTransmitters(round, tx)
		fresh.ObserveTransmitters(round, tx)
		for e := 0; e < d.UnreliableEdgeCount(); e++ {
			if a.Included(round, e) != fresh.Included(round, e) {
				t.Fatalf("round %d edge %d: rebound %v, fresh %v",
					round, e, a.Included(round, e), fresh.Included(round, e))
			}
		}
	}
}
