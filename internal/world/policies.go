// This file registers the builtin local-broadcast policies: LBAlg, the GHLN
// contention-management baselines (uniform and cycling strategies), decay,
// and the SINR local broadcast layer under uniform and per-node power.
// Registration order is the column order of every comparison matrix, so it
// must stay stable: lbalg, contention-uniform, contention-cycling, decay,
// sinr-local, sinr-pernode.

package world

import (
	"math"
	"slices"

	"lbcast/internal/baseline"
	"lbcast/internal/core"
	"lbcast/internal/geo"
	"lbcast/internal/sinr"
	"lbcast/internal/xrand"
)

func init() {
	Register(Policy{
		Name:        "lbalg",
		Description: "the paper's LBAlg over the dual graph, ack window TAckBound",
		Model:       "dualgraph",
		Instantiate: func(top *Topology) (*Instance, error) {
			lbParams, err := core.DeriveParams(top.Delta, top.DeltaPrime, top.Dual.R, top.Eps)
			if err != nil {
				return nil, err
			}
			plan := core.NewPhasePlan(lbParams)
			return &Instance{
				AckWindow: lbParams.TAckBound(),
				Neighbors: dualNeighbors(top),
				NewService: func(int) core.Service {
					return core.NewLBAlgWithPlan(plan)
				},
			}, nil
		},
	})
	Register(Policy{
		Name:        "contention-uniform",
		Description: "GHLN contention baseline, uniform slot strategy",
		Model:       "dualgraph",
		Instantiate: func(top *Topology) (*Instance, error) {
			return &Instance{
				AckWindow: baseline.ContentionAckRounds(top.DeltaPrime, top.Eps),
				Neighbors: dualNeighbors(top),
				NewService: func(int) core.Service {
					return baseline.NewContention(baseline.ContentionParams{
						DeltaPrime: top.DeltaPrime, Strategy: baseline.StrategyUniform, Eps: top.Eps})
				},
			}, nil
		},
	})
	Register(Policy{
		Name:        "contention-cycling",
		Description: "GHLN contention baseline, cycling slot strategy",
		Model:       "dualgraph",
		Instantiate: func(top *Topology) (*Instance, error) {
			return &Instance{
				AckWindow: baseline.ContentionAckRounds(top.DeltaPrime, top.Eps),
				Neighbors: dualNeighbors(top),
				NewService: func(int) core.Service {
					return baseline.NewContention(baseline.ContentionParams{
						DeltaPrime: top.DeltaPrime, Strategy: baseline.StrategyCycling, Eps: top.Eps})
				},
			}, nil
		},
	})
	Register(Policy{
		Name:        "decay",
		Description: "Bar-Yehuda–Goldreich–Itai decay with repeated windows",
		Model:       "dualgraph",
		Instantiate: func(top *Topology) (*Instance, error) {
			ack := baseline.DecayAckRounds(top.Delta, top.Eps)
			return &Instance{
				AckWindow: ack,
				Neighbors: dualNeighbors(top),
				NewService: func(int) core.Service {
					return baseline.NewDecay(baseline.DecayParams{Delta: top.Delta, AckRounds: ack})
				},
			}, nil
		},
	})
	Register(Policy{
		Name:        "sinr-local",
		Description: "SINR local broadcast layer, uniform power over the same embedding",
		Model:       "sinr",
		Instantiate: func(top *Topology) (*Instance, error) {
			model, err := sinr.NewModel(top.Dual.Emb, sinr.UniformPower(1), sinr.DefaultParams())
			if err != nil {
				return nil, err
			}
			// Isolation-range neighbor lists are built lazily, on the first
			// reliability lookup (the sequential summarize phase), so runs
			// that never read them pay nothing.
			var lists [][]int32
			return &Instance{
				AckWindow: sinr.LayerAckRounds(top.DeltaPrime, top.Eps),
				Reception: model,
				Neighbors: func(src int) []int32 {
					if lists == nil {
						lists = isolationNeighbors(top.Dual.Emb, model.Params().Range(1))
					}
					return lists[src]
				},
				NewService: func(int) core.Service {
					return sinr.NewLocalBcast(sinr.LayerParams{Delta: top.DeltaPrime, Eps: top.Eps})
				},
			}, nil
		},
	})
	Register(Policy{
		Name:        "sinr-pernode",
		Description: "SINR layer with a deterministic 2× per-node power spread",
		Model:       "sinr",
		Instantiate: func(top *Topology) (*Instance, error) {
			// Non-uniform transmit powers: a deterministic 2× spread over the
			// same embedding (P_u ∈ [0.75, 1.5]), so reception and the
			// per-source isolation ranges depend on who transmits, which a
			// uniform assignment cannot show.
			n := top.Dual.N()
			powers := make(sinr.PerNodePower, n)
			prng := xrand.New(top.Seed).Split(0x9027)
			for u := range powers {
				powers[u] = 0.75 + 0.75*prng.Float64()
			}
			model, err := sinr.NewModel(top.Dual.Emb, powers, sinr.DefaultParams())
			if err != nil {
				return nil, err
			}
			var lists [][]int32
			return &Instance{
				AckWindow: sinr.LayerAckRounds(top.DeltaPrime, top.Eps),
				Reception: model,
				Neighbors: func(src int) []int32 {
					if lists == nil {
						radii := make([]float64, n)
						for u := range radii {
							radii[u] = model.Params().Range(powers[u])
						}
						lists = isolationNeighborsPerSource(top.Dual.Emb, radii)
					}
					return lists[src]
				},
				NewService: func(int) core.Service {
					return sinr.NewLocalBcast(sinr.LayerParams{Delta: top.DeltaPrime, Eps: top.Eps})
				},
			}, nil
		},
	})
}

// dualNeighbors is the reliability neighbor notion of every dual-graph
// policy: the reliable (G) adjacency of the pristine reference topology.
// Churn runs patch per-policy clones, never this reference, so the
// reliability condition is judged against the intended graph.
func dualNeighbors(top *Topology) func(int) []int32 {
	return func(src int) []int32 { return top.Dual.G.Neighbors(src) }
}

// isNeighbor reports whether v is in the ascending neighbor list.
func isNeighbor(neigh []int32, v int32) bool {
	_, ok := slices.BinarySearch(neigh, v)
	return ok
}

// isolationNeighbors returns, per node, the ascending list of nodes within
// the given distance — the SINR counterpart of reliable adjacency for the
// reliability metric. The dense grid index with the distance-radius stencil
// keeps it O(n · density) rather than all-pairs.
func isolationNeighbors(emb []geo.Point, radius float64) [][]int32 {
	n := len(emb)
	out := make([][]int32, n)
	gi := geo.BuildGridIndex(emb)
	stencil := geo.NeighborStencil(radius)
	for u := 0; u < n; u++ {
		gi.VisitNear(u, stencil, func(v int32) {
			if int(v) != u && geo.Dist(emb[u], emb[int(v)]) <= radius {
				out[u] = append(out[u], v)
			}
		})
		slices.Sort(out[u])
	}
	return out
}

// isolationNeighborsPerSource is the non-uniform-power variant: node u's
// neighbor set is the nodes within radii[u], u's own isolation range. One
// stencil sized for the largest radius serves every source.
func isolationNeighborsPerSource(emb []geo.Point, radii []float64) [][]int32 {
	n := len(emb)
	out := make([][]int32, n)
	gi := geo.BuildGridIndex(emb)
	maxR := 0.0
	for _, r := range radii {
		maxR = math.Max(maxR, r)
	}
	stencil := geo.NeighborStencil(maxR)
	for u := 0; u < n; u++ {
		gi.VisitNear(u, stencil, func(v int32) {
			if int(v) != u && geo.Dist(emb[u], emb[int(v)]) <= radii[u] {
				out[u] = append(out[u], v)
			}
		})
		slices.Sort(out[u])
	}
	return out
}
