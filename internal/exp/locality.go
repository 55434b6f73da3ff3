package exp

import (
	"fmt"
	"math"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-LOCAL", Claim: "§1: guarantees independent of network size n", Run: runLocality})
	register(Experiment{ID: "E-REGION", Claim: "Lemma A.1/A.3: region partition bounds", Run: runRegions})
}

// runLocality grows n at fixed local density and shows the per-node
// progress rate and the schedule lengths stay flat — the paper's "true
// locality" claim. A global algorithm (round-robin TDMA) would scale its
// latency with n; LBAlg's t_prog depends only on Δ.
func runLocality(size Size, seed uint64) (*Result, error) {
	ns := pick(size, []int{64, 256}, []int{128, 512, 2048}, []int{250, 1000, 4000, 16000})
	phases := pick(size, 3, 4, 6)
	const density = 12.0 // expected nodes per unit disc; keeps Δ roughly fixed
	eps := 0.25

	tbl := &stats.Table{
		Title:   "E-LOCAL: locality — per-node guarantees vs network size n",
		Columns: []string{"n", "Delta", "t_prog", "progress opportunities", "progress rate", "TDMA frame (global, =n)"},
		Notes: []string{
			"density fixed: Δ stays ~constant while n grows; t_prog and the progress rate must stay flat",
			"the last column is what an id-slotted global TDMA would need — it grows linearly with n",
		},
	}
	rng := xrand.New(seed)
	var xs, ys []float64
	for _, n := range ns {
		side := math.Sqrt(float64(n) * math.Pi / density)
		d, err := dualgraph.RandomGeometric(n, side, side, 1.5, dualgraph.GreyUnreliable, rng)
		if err != nil {
			return nil, err
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1.5, eps)
		if err != nil {
			return nil, err
		}
		// Saturate a scattered 10% of nodes.
		senders := make([]int, 0, n/10+1)
		for u := 0; u < n; u += 10 {
			senders = append(senders, u)
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(n)},
			p, saturate(senders), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run(phases * p.PhaseLen())
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-LOCAL n=%d: %w", n, err)
		}
		tbl.AddRow(n, d.Delta(), p.TProgBound(), rep.ProgressOpportunities, rep.ProgressRate(), n)
		xs = append(xs, float64(n))
		ys = append(ys, float64(p.TProgBound()))
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"log–log slope of t_prog vs n: %.3f (theory: ≈0 — no dependence on n)", stats.LogLogSlope(xs, ys)))
	return &Result{ID: "E-LOCAL", Claim: "§1 true locality", Tables: []*stats.Table{tbl}}, nil
}

// runRegions verifies the geometric substrate lemmas on random embeddings:
// the grid partition is f-bounded with f(h) = c₁r²h² (Lemma A.1/A.2) and
// Δ′ ≤ c_r·Δ (Lemma A.3).
func runRegions(size Size, seed uint64) (*Result, error) {
	n := pick(size, 300, 1000, 4000)
	trials := pick(size, 3, 6, 12)
	rs := []float64{1, 1.5, 2, 3}

	tbl := &stats.Table{
		Title:   "E-REGION: region partition bounds (Lemmas A.1–A.3)",
		Columns: []string{"r", "trials", "f-bound violations (h≤4)", "max Δ′/Δ", "c_r bound", "Δ′≤c_rΔ holds"},
		Notes:   []string{fmt.Sprintf("uniform random embeddings, n=%d", n)},
	}
	rng := xrand.New(seed)
	for _, r := range rs {
		violations := 0
		worstRatio := 0.0
		for trial := 0; trial < trials; trial++ {
			d, err := dualgraph.RandomGeometric(n, 12, 12, r, dualgraph.GreyUnreliable, rng)
			if err != nil {
				return nil, err
			}
			idx := geo.BuildGridIndex(d.Emb)
			g := geo.BuildRegionGraph(idx.Regions(), r)
			if ok, _, _, _ := g.CheckFBounded(4); !ok {
				violations++
			}
			if ratio := float64(d.DeltaPrime()) / float64(d.Delta()); ratio > worstRatio {
				worstRatio = ratio
			}
		}
		crBound := geo.FBound(r, 1)
		tbl.AddRow(r, trials, violations, worstRatio, crBound,
			fmt.Sprintf("%v", worstRatio <= crBound))
	}
	return &Result{ID: "E-REGION", Claim: "Lemmas A.1–A.3", Tables: []*stats.Table{tbl}}, nil
}
