package dualgraph

import (
	"fmt"
	"slices"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// oracleDual rebuilds the dual a churn script should have produced from
// scratch: brute-force edge discovery over the present pairs under the
// GreyUnreliable policy. It is deliberately independent of both the stencil
// builder and the patch path.
func oracleDual(emb []geo.Point, present []bool, r float64) *Dual {
	n := len(emb)
	g, gp := NewGraph(n), NewGraph(n)
	for u := 0; u < n; u++ {
		if !present[u] {
			continue
		}
		for v := u + 1; v < n; v++ {
			if !present[v] {
				continue
			}
			dist := geo.Dist(emb[u], emb[v])
			switch {
			case dist <= 1:
				g.AddEdge(u, v)
				gp.AddEdge(u, v)
			case dist <= r:
				gp.AddEdge(u, v)
			}
		}
	}
	return newDualTrusted(g, gp, emb, r)
}

// checkDualEquiv compares a patched dual structurally against the oracle
// rebuild: adjacency lists, the canonical unreliable edge list, and the
// unreliable incidence must be identical, and Validate must accept the
// patched dual.
func checkDualEquiv(t *testing.T, d *Dual, present []bool) {
	t.Helper()
	want := oracleDual(d.Emb, present, d.R)
	for u := 0; u < d.G.N(); u++ {
		if !slices.Equal(d.G.Neighbors(u), want.G.Neighbors(u)) {
			t.Fatalf("G adjacency of %d = %v, want %v", u, d.G.Neighbors(u), want.G.Neighbors(u))
		}
		if !slices.Equal(d.Gp.Neighbors(u), want.Gp.Neighbors(u)) {
			t.Fatalf("G' adjacency of %d = %v, want %v", u, d.Gp.Neighbors(u), want.Gp.Neighbors(u))
		}
		if !present[u] && (d.G.Degree(u) != 0 || d.Gp.Degree(u) != 0) {
			t.Fatalf("absent vertex %d still has edges", u)
		}
		if d.Present(u) != present[u] {
			t.Fatalf("Present(%d) = %v, want %v", u, d.Present(u), present[u])
		}
	}
	if got, w := unreliableEdges(d), unreliableEdges(want); !slices.Equal(got, w) {
		t.Fatalf("unreliable edges diverge:\n got %v\nwant %v", got, w)
	}
	uc, wuc := d.UnreliableCSR(), want.UnreliableCSR()
	if !slices.Equal(uc.Off, wuc.Off) || !slices.Equal(uc.Peers, wuc.Peers) || !slices.Equal(uc.Edges, wuc.Edges) {
		t.Fatalf("unreliable CSR diverges from rebuild")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate rejects patched dual: %v", err)
	}
}

// TestPatchNodeRandomChurn runs randomized detach/attach scripts against a
// geometric dual, checking structural equality with a from-scratch rebuild
// and Validate acceptance after every patch — both with the incremental
// spatial index driving neighbor discovery and without it.
func TestPatchNodeRandomChurn(t *testing.T) {
	for _, seed := range []uint64{3, 19, 77} {
		for _, useIdx := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/idx=%v", seed, useIdx), func(t *testing.T) {
				rng := xrand.New(seed)
				const n = 120
				d, err := RandomGeometric(n, 4, 4, 1.5, GreyUnreliable, rng)
				if err != nil {
					t.Fatal(err)
				}
				var idx *geo.GridIndex
				if useIdx {
					idx = geo.BuildGridIndex(d.Emb)
				}
				present := make([]bool, n)
				for v := range present {
					present[v] = true
				}
				for op := 0; op < 150; op++ {
					if rng.Coin(0.5) {
						// Detach a random present vertex (keep a quorum up).
						if c := countTrue(present); c > n/3 {
							v := rng.Intn(n)
							for !present[v] {
								v = rng.Intn(n)
							}
							if err := d.PatchNode(v, nil, idx, GreyUnreliable); err != nil {
								t.Fatal(err)
							}
							present[v] = false
						}
					} else {
						// Attach a random absent vertex, usually at a fresh
						// position, sometimes back where it was.
						v := -1
						for u := range present {
							if !present[u] {
								v = u
								break
							}
						}
						if v < 0 {
							continue
						}
						p := d.Emb[v]
						if rng.Intn(4) > 0 {
							p = geo.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
						}
						if err := d.PatchNode(v, &p, idx, GreyUnreliable); err != nil {
							t.Fatal(err)
						}
						present[v] = true
					}
					checkDualEquiv(t, d, present)
					if idx != nil {
						indexed := make([]bool, len(present))
						for ri := 0; ri < idx.Len(); ri++ {
							for _, u := range idx.MembersAt(ri) {
								indexed[u] = true
							}
						}
						if !slices.Equal(indexed, present) {
							t.Fatalf("spatial index holds %v, want %v", indexed, present)
						}
					}
				}
			})
		}
	}
}

// TestPatchNodeRoundTrip pins that detaching a vertex and re-attaching it at
// its original position restores the exact original structure: G's rows
// and the unreliable edge numbering.
func TestPatchNodeRoundTrip(t *testing.T) {
	rng := xrand.New(5)
	d, err := RandomGeometric(80, 3, 3, 1.5, GreyUnreliable, rng)
	if err != nil {
		t.Fatal(err)
	}
	idx := geo.BuildGridIndex(d.Emb)
	wantG := make([][]int32, d.N())
	for u := range wantG {
		wantG[u] = slices.Clone(d.G.Neighbors(u))
	}
	wantU := unreliableEdges(d)

	for v := 0; v < 80; v += 7 {
		p := d.Emb[v]
		if err := d.PatchNode(v, nil, idx, GreyUnreliable); err != nil {
			t.Fatal(err)
		}
		if err := d.PatchNode(v, &p, idx, GreyUnreliable); err != nil {
			t.Fatal(err)
		}
	}
	for u, row := range wantG {
		if !slices.Equal(d.G.Neighbors(u), row) {
			t.Fatalf("round-trip patching changed G's row %d: %v, want %v", u, d.G.Neighbors(u), row)
		}
	}
	if !slices.Equal(unreliableEdges(d), wantU) {
		t.Fatalf("round-trip patching changed the unreliable edge list")
	}
}

// TestPatchNodeErrors pins the misuse contract.
func TestPatchNodeErrors(t *testing.T) {
	rng := xrand.New(1)
	d, err := RandomGeometric(20, 2, 2, 1.5, GreyUnreliable, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{X: 1, Y: 1}
	if err := d.PatchNode(3, &p, nil, GreyUnreliable); err == nil {
		t.Fatalf("attach of a present vertex must fail")
	}
	if err := d.PatchNode(-1, nil, nil, GreyUnreliable); err == nil {
		t.Fatalf("out-of-range vertex must fail")
	}
	if err := d.PatchNode(3, nil, nil, GreyUnreliable); err != nil {
		t.Fatal(err)
	}
	if err := d.PatchNode(3, nil, nil, GreyUnreliable); err == nil {
		t.Fatalf("double detach must fail")
	}
	if err := d.PatchNode(3, &p, nil, GreyMixed); err == nil {
		t.Fatalf("GreyMixed patches must be rejected")
	}
	if err := d.PatchNode(3, &p, nil, GreyUnreliable); err != nil {
		t.Fatal(err)
	}
}

// TestIndexPatchSpeedup is the incremental-maintenance acceptance check: at
// the 10⁴-node sweep point, a single index-assisted PatchNode must beat a
// full RandomGeometric rebuild by at least 10×. The real margin is orders of
// magnitude — a patch touches one grid neighborhood while a rebuild scans
// every cell — so the 10× floor leaves plenty of room for timer noise.
func TestIndexPatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-node timing comparison")
	}
	const n = 10_000
	d, err := RandomGeometric(n, 50, 50, 1.5, GreyUnreliable, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	idx := geo.BuildGridIndex(d.Emb)

	rebuild := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RandomGeometric(n, 50, 50, 1.5, GreyUnreliable, xrand.New(7)); err != nil {
				b.Fatal(err)
			}
		}
	})
	patch := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := (i * 37) % n
			p := d.Emb[v]
			if err := d.PatchNode(v, nil, idx, GreyUnreliable); err != nil {
				b.Fatal(err)
			}
			if err := d.PatchNode(v, &p, idx, GreyUnreliable); err != nil {
				b.Fatal(err)
			}
		}
	})
	rebuildNs := float64(rebuild.NsPerOp())
	patchNs := float64(patch.NsPerOp()) / 2 // round trip = two patches
	// The race detector taxes the patch path's arena-slice copies far more
	// than the rebuild's bulk construction, compressing the measured ratio
	// to ~10–12× on a loaded single-core box, so the floor loosens there.
	floor := 10.0
	if raceEnabled {
		floor = 4.0
	}
	t.Logf("n=%d: rebuild %.0f ns, patch %.0f ns, speedup %.0fx (floor %.0fx)",
		n, rebuildNs, patchNs, rebuildNs/patchNs, floor)
	if rebuildNs < floor*patchNs {
		t.Fatalf("patch not ≥%.0f× faster than rebuild: rebuild %.0f ns vs patch %.0f ns",
			floor, rebuildNs, patchNs)
	}
}

// BenchmarkIndexPatch measures one index-assisted detach+attach round trip
// at the 10⁴-node sweep point — the per-event topology cost the churn layer
// pays for a Leave or Join. The CI regression gate tracks it.
func BenchmarkIndexPatch(b *testing.B) {
	const n = 10_000
	d, err := RandomGeometric(n, 50, 50, 1.5, GreyUnreliable, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	idx := geo.BuildGridIndex(d.Emb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := (i * 37) % n
		p := d.Emb[v]
		if err := d.PatchNode(v, nil, idx, GreyUnreliable); err != nil {
			b.Fatal(err)
		}
		if err := d.PatchNode(v, &p, idx, GreyUnreliable); err != nil {
			b.Fatal(err)
		}
	}
}

func countTrue(s []bool) int {
	n := 0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}
