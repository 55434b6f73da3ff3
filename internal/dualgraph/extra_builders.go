package dualgraph

import (
	"fmt"
	"math"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// RandomClusterTree builds a tree of single-hop clusters: cluster 0 is the
// root; every other cluster attaches to a uniformly random earlier cluster
// with a grey-zone gap, so the inter-cluster topology is a random tree whose
// edges are all unreliable. This is the hierarchical stress shape for
// multi-hop experiments: reliable islands, adversarial trunks.
func RandomClusterTree(clusters, perCluster int, r float64, rng *xrand.Source) (*Dual, error) {
	if clusters <= 0 || perCluster <= 0 {
		return nil, fmt.Errorf("dualgraph: invalid tree shape %dx%d", clusters, perCluster)
	}
	if r <= 1 {
		return nil, fmt.Errorf("dualgraph: RandomClusterTree needs r > 1, got %v", r)
	}
	rho := math.Min(0.25, (r-1)/8)
	gap := 1 + 3*rho // centre spacing: gaps in (1, r]

	centres := make([]geo.Point, clusters)
	for c := 1; c < clusters; c++ {
		parent := rng.Intn(c)
		// Place around the parent at angle θ; retry until the new centre
		// keeps distance ≥ gap from every existing centre so no unintended
		// reliable contact forms.
		placed := false
		for attempt := 0; attempt < 200 && !placed; attempt++ {
			theta := rng.Float64() * 2 * math.Pi
			cand := geo.Point{
				X: centres[parent].X + gap*math.Cos(theta),
				Y: centres[parent].Y + gap*math.Sin(theta),
			}
			ok := true
			for prev := 0; prev < c; prev++ {
				d := geo.Dist(cand, centres[prev])
				if prev == parent {
					continue
				}
				// Other clusters must stay out of the grey zone entirely so
				// the inter-cluster graph stays a tree.
				if d <= r+2*rho {
					ok = false
					break
				}
			}
			if ok {
				centres[c] = cand
				placed = true
			}
		}
		if !placed {
			return nil, fmt.Errorf("dualgraph: could not place cluster %d without contact", c)
		}
	}

	emb := make([]geo.Point, 0, clusters*perCluster)
	for c := 0; c < clusters; c++ {
		for i := 0; i < perCluster; i++ {
			for {
				x, y := (rng.Float64()-0.5)*2*rho, (rng.Float64()-0.5)*2*rho
				if x*x+y*y <= rho*rho {
					emb = append(emb, geo.Point{X: centres[c].X + x, Y: centres[c].Y + y})
					break
				}
			}
		}
	}
	return buildFromEmbedding(emb, r, GreyUnreliable, rng)
}
