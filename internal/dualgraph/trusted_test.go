package dualgraph

import (
	"math"
	"reflect"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// dualsStructurallyIdentical compares every derived structure of two duals:
// the graphs, the embedding and the unreliable incidence with its edge
// numbering. This is the full surface the engine and the schedulers
// consume, so equality here means the two construction paths are
// observationally indistinguishable.
func dualsStructurallyIdentical(t *testing.T, got, want *Dual) {
	t.Helper()
	if got.N() != want.N() || got.R != want.R {
		t.Fatalf("shape diverges: n=%d r=%v vs n=%d r=%v", got.N(), got.R, want.N(), want.R)
	}
	if !reflect.DeepEqual(got.G.adj, want.G.adj) {
		t.Fatal("G adjacency diverges")
	}
	if !reflect.DeepEqual(got.Gp.adj, want.Gp.adj) {
		t.Fatal("G' adjacency diverges")
	}
	if !reflect.DeepEqual(got.Emb, want.Emb) {
		t.Fatal("embedding diverges")
	}
	if !reflect.DeepEqual(got.uCSR, want.uCSR) {
		t.Fatal("unreliable CSR diverges")
	}
}

// TestTrustedMatchesValidatedConstruction is the trusted-path contract: for
// every geometric builder and multiple seeds, the dual the trusted
// constructor produced must (a) pass the full Validate, and (b) be
// structurally identical to re-assembling the same graphs through the
// validated NewDual entry point.
func TestTrustedMatchesValidatedConstruction(t *testing.T) {
	builders := []struct {
		name  string
		build func(seed uint64) (*Dual, error)
	}{
		{"random-geometric-unreliable", func(s uint64) (*Dual, error) {
			return RandomGeometric(120, 6, 5, 1.6, GreyUnreliable, xrand.New(s))
		}},
		{"random-geometric-none", func(s uint64) (*Dual, error) {
			return RandomGeometric(90, 5, 5, 1.5, GreyNone, xrand.New(s))
		}},
		{"random-geometric-reliable", func(s uint64) (*Dual, error) {
			return RandomGeometric(90, 5, 5, 1.5, GreyReliable, xrand.New(s))
		}},
		{"random-geometric-mixed", func(s uint64) (*Dual, error) {
			return RandomGeometric(110, 5, 5, 2.0, GreyMixed, xrand.New(s))
		}},
		{"single-hop-cluster", func(s uint64) (*Dual, error) {
			return SingleHopCluster(40, 1.5, xrand.New(s))
		}},
		{"two-tier-clusters", func(s uint64) (*Dual, error) {
			return TwoTierClusters(4, 12, 1.8, xrand.New(s))
		}},
		{"line", func(s uint64) (*Dual, error) {
			return Line(60, 0.4, 1.5, xrand.New(s))
		}},
		{"grid-lattice", func(s uint64) (*Dual, error) {
			return GridLattice(8, 0.7, 1.5, xrand.New(s))
		}},
		{"ring", func(uint64) (*Dual, error) {
			// 50 points 0.8 apart on a circle: a reliable cycle whose
			// second-neighbour chords fall in the grey zone.
			emb := make([]geo.Point, 50)
			radius := 0.8 / (2 * math.Sin(math.Pi/50))
			for i := range emb {
				theta := 2 * math.Pi * float64(i) / 50
				emb[i] = geo.Point{X: radius * math.Cos(theta), Y: radius * math.Sin(theta)}
			}
			return Geometric(emb, 1.9)
		}},
		{"random-cluster-tree", func(s uint64) (*Dual, error) {
			return RandomClusterTree(5, 8, 1.8, xrand.New(s))
		}},
		{"geometric", func(s uint64) (*Dual, error) {
			rng := xrand.New(s)
			emb := make([]geo.Point, 100)
			for i := range emb {
				emb[i] = geo.Point{X: rng.Float64()*6 - 3, Y: rng.Float64() * 5}
			}
			return Geometric(emb, 1.7)
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				trusted, err := b.build(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := trusted.Validate(); err != nil {
					t.Fatalf("seed %d: trusted construction fails Validate: %v", seed, err)
				}
				validated, err := NewDual(trusted.G, trusted.Gp, trusted.Emb, trusted.R)
				if err != nil {
					t.Fatalf("seed %d: NewDual on trusted graphs: %v", seed, err)
				}
				dualsStructurallyIdentical(t, trusted, validated)
			}
		})
	}
}

// TestValidateRejectsWhatTrustedAccepts corrupts inputs in each way the
// r-geographic model forbids and shows the split holds: a dual assembled
// without validation, as the geometric builders assemble theirs, holds the
// corrupt graphs without complaint, while Validate — and therefore NewDual —
// still rejects them.
func TestValidateRejectsWhatTrustedAccepts(t *testing.T) {
	corruptions := []struct {
		name  string
		build func() (*Graph, *Graph, []geo.Point, float64)
	}{
		{"reliable edge missing from G'", func() (*Graph, *Graph, []geo.Point, float64) {
			g, gp := NewGraph(3), NewGraph(3)
			g.AddEdge(0, 1) // E ⊄ E′
			return g, gp, nil, 1
		}},
		{"vertex count mismatch", func() (*Graph, *Graph, []geo.Point, float64) {
			return NewGraph(3), NewGraph(4), nil, 1
		}},
		{"r below 1", func() (*Graph, *Graph, []geo.Point, float64) {
			return NewGraph(2), NewGraph(2), nil, 0.5
		}},
		{"embedding length mismatch", func() (*Graph, *Graph, []geo.Point, float64) {
			return NewGraph(3), NewGraph(3), []geo.Point{{X: 0, Y: 0}}, 1
		}},
		{"close pair without reliable edge", func() (*Graph, *Graph, []geo.Point, float64) {
			// Condition 1 violation: distance 0.5 ≤ 1 but no edge in G.
			g, gp := NewGraph(2), NewGraph(2)
			return g, gp, []geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, 1.5
		}},
		{"unreliable edge beyond r", func() (*Graph, *Graph, []geo.Point, float64) {
			// Condition 2 violation: an E′ edge spanning distance 5 > r.
			g, gp := NewGraph(2), NewGraph(2)
			gp.AddEdge(0, 1)
			return g, gp, []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 0}}, 1.5
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			g, gp, emb, r := c.build()
			if _, err := NewDual(g, gp, emb, r); err == nil {
				t.Fatal("NewDual accepted a corrupt input")
			}
			d := &Dual{G: g, Gp: gp, Emb: emb, R: r}
			if err := d.Validate(); err == nil {
				t.Fatal("Validate passed a corrupt dual the trusted path assembled")
			}
		})
	}
}

// newDualTrusted assembles and indexes a dual without validating it, for
// oracles whose graphs are right by construction but which NewDual would
// refuse: a churn oracle's absent vertices keep stale positions.
func newDualTrusted(g, gp *Graph, emb []geo.Point, r float64) *Dual {
	d := &Dual{G: g, Gp: gp, Emb: emb, R: r}
	d.index()
	return d
}

// TestBuildFromEmbeddingRejectsSmallR pins that the trusted builders did not
// lose the r ≥ 1 model check NewDual used to supply.
func TestBuildFromEmbeddingRejectsSmallR(t *testing.T) {
	if _, err := RandomGeometric(10, 3, 3, 0.9, GreyUnreliable, xrand.New(1)); err == nil {
		t.Fatal("RandomGeometric accepted r < 1")
	}
}
