package exp

import (
	"fmt"
	"math"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-SEED-DELTA", Claim: "Theorem 3.1: δ = O(r²·log(1/ε₁))", Run: runSeedDelta})
	register(Experiment{ID: "E-SEED-TIME", Claim: "Theorem 3.1: O(logΔ·log²(1/ε₁)) rounds", Run: runSeedTime})
	register(Experiment{ID: "E-SEED-SPEC", Claim: "Seed(δ,ε) conditions 1–4", Run: runSeedSpec})
}

// runSeedInstance executes one standalone seed agreement run and returns the
// per-process handles.
func runSeedInstance(d *dualgraph.Dual, p seedagree.Params, s sim.LinkScheduler, seed uint64) ([]*seedagree.Process, error) {
	procs := make([]*seedagree.Process, d.N())
	simProcs := make([]sim.Process, d.N())
	plan := seedagree.NewPlan(p)
	for u := range procs {
		procs[u] = seedagree.NewProcess(plan)
		simProcs[u] = procs[u]
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: s, Seed: seed})
	if err != nil {
		return nil, err
	}
	e.Run(p.Rounds())
	return procs, nil
}

// runSeedDelta measures the worst per-neighborhood committed owner count on
// random geometric dual graphs across r and ε, against the Theorem 3.1
// shape δ = O(r²·log(1/ε₁)).
func runSeedDelta(size Size, seed uint64) (*Result, error) {
	n := pick(size, 150, 500, 2000)
	trials := pick(size, 3, 8, 20)
	rs := pick(size, []float64{1, 2}, []float64{1, 1.5, 2}, []float64{1, 1.5, 2, 3})
	epss := []float64{0.25, 1.0 / 16, 1.0 / 64}

	tbl := &stats.Table{
		Title:   "E-SEED-DELTA: unique committed owners per G′ neighborhood (Theorem 3.1)",
		Columns: []string{"r", "eps1", "Delta", "max owners", "p95 owners", "bound 6r²log(1/ε)", "within bound"},
		Notes: []string{
			"bound uses the calibrated practical constant 6 for the O(r²·log(1/ε₁)) of Theorem 3.1",
			fmt.Sprintf("random geometric graphs, n=%d, %d trials per cell, all grey-zone links unreliable", n, trials),
		},
	}
	rng := xrand.New(seed)
	for _, r := range rs {
		// Fix the area so density (and Δ) stays roughly constant across r.
		side := math.Sqrt(float64(n) / 18)
		d, err := dualgraph.RandomGeometric(n, side, side, r, dualgraph.GreyUnreliable, rng)
		if err != nil {
			return nil, err
		}
		for _, eps := range epss {
			p, err := seedagree.NewParams(eps, 64, d.Delta())
			if err != nil {
				return nil, err
			}
			var counts []float64
			worst := 0
			for trial := 0; trial < trials; trial++ {
				procs, err := runSeedInstance(d, p, sched.NewRandom(0.5, seed+uint64(trial)), seed+uint64(trial)*7919)
				if err != nil {
					return nil, err
				}
				ds, err := seedagree.CollectDecisions(procs)
				if err != nil {
					return nil, err
				}
				m, _ := seedagree.MaxOwnerCount(d, ds)
				counts = append(counts, float64(m))
				if m > worst {
					worst = m
				}
			}
			bound := 6 * r * r * math.Log2(1/eps)
			tbl.AddRow(r, eps, d.Delta(), worst, stats.Quantile(counts, 0.95), bound,
				fmt.Sprintf("%v", float64(worst) <= bound))
		}
	}
	return &Result{ID: "E-SEED-DELTA", Claim: "Theorem 3.1 (δ bound)", Tables: []*stats.Table{tbl}}, nil
}

// runSeedTime verifies the running-time structure O(logΔ·log²(1/ε₁)):
// measured rounds are exact (the algorithm is synchronous), so the table
// reports the closed form and its scaling ratios.
func runSeedTime(size Size, _ uint64) (*Result, error) {
	deltas := pick(size,
		[]int{8, 16, 32, 64},
		[]int{8, 16, 32, 64, 128, 256},
		[]int{8, 16, 32, 64, 128, 256, 512, 1024})
	epss := []float64{0.25, 1.0 / 16, 1.0 / 64}

	tbl := &stats.Table{
		Title:   "E-SEED-TIME: SeedAlg running time (Theorem 3.1)",
		Columns: []string{"Delta", "eps1", "phases(logΔ)", "phase len", "rounds", "rounds/(logΔ·log²(1/ε))"},
		Notes:   []string{"the normalised column must be flat (= c₄ up to ceiling): time is Θ(logΔ·log²(1/ε₁))"},
	}
	var xs, ys []float64
	for _, delta := range deltas {
		for _, eps := range epss {
			p, err := seedagree.NewParams(eps, 8, delta)
			if err != nil {
				return nil, err
			}
			l := math.Log2(1 / eps)
			norm := float64(p.Rounds()) / (float64(p.Phases()) * l * l)
			tbl.AddRow(delta, eps, p.Phases(), p.PhaseLen(), p.Rounds(), norm)
			if eps == 0.25 {
				xs = append(xs, float64(p.Phases()))
				ys = append(ys, float64(p.Rounds()))
			}
		}
	}
	slope := stats.LogLogSlope(xs, ys)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("log–log slope of rounds vs logΔ at ε=¼: %.3f (theory: 1.0)", slope))
	return &Result{ID: "E-SEED-TIME", Claim: "Theorem 3.1 (time)", Tables: []*stats.Table{tbl}}, nil
}

// runSeedSpec validates all four Seed(δ, ε) conditions across graph
// families and schedulers, plus a statistical independence check.
func runSeedSpec(size Size, seed uint64) (*Result, error) {
	trials := pick(size, 4, 10, 30)
	rng := xrand.New(seed)

	type family struct {
		name  string
		build func() (*dualgraph.Dual, error)
	}
	families := []family{
		{"cluster-24", func() (*dualgraph.Dual, error) { return dualgraph.SingleHopCluster(24, 1, rng) }},
		{"two-tier-4x8", func() (*dualgraph.Dual, error) { return dualgraph.TwoTierClusters(4, 8, 2, rng) }},
		{"geometric-200", func() (*dualgraph.Dual, error) {
			return dualgraph.RandomGeometric(200, 5, 5, 1.5, dualgraph.GreyUnreliable, rng)
		}},
		{"line-30", func() (*dualgraph.Dual, error) { return dualgraph.Line(30, 0.9, 1.5, rng) }},
	}
	schedulers := []struct {
		name string
		s    sim.LinkScheduler
	}{
		{"never", sched.Never{}},
		{"always", sched.Always{}},
		{"random½", sched.NewRandom(0.5, seed)},
	}

	tbl := &stats.Table{
		Title:   "E-SEED-SPEC: Seed(δ,ε) specification conditions",
		Columns: []string{"family", "scheduler", "trials", "wf+consistency violations", "max owners", "owner-seed bit balance"},
		Notes: []string{
			"well-formedness, consistency and ownership (Lemma B.1) must show 0 violations",
			"bit balance is the mean fraction of one-bits across committed owner seeds (independence ⇒ ≈0.5)",
		},
	}
	for _, fam := range families {
		d, err := fam.build()
		if err != nil {
			return nil, err
		}
		p, err := seedagree.NewParams(0.1, 64, d.Delta())
		if err != nil {
			return nil, err
		}
		for _, sc := range schedulers {
			violations, worst := 0, 0
			ones, bits := 0, 0
			for trial := 0; trial < trials; trial++ {
				procs, err := runSeedInstance(d, p, sc.s, seed^uint64(trial)*2654435761)
				if err != nil {
					return nil, err
				}
				ds, err := seedagree.CollectDecisions(procs)
				if err != nil {
					violations++
					continue
				}
				if err := seedagree.CheckConsistency(ds); err != nil {
					violations++
				}
				initial := make(map[int]xrand.Seed, len(procs))
				for u, pr := range procs {
					initial[u] = pr.Alg().InitialSeed()
				}
				if err := seedagree.CheckOwnership(ds, initial); err != nil {
					violations++
				}
				if m, _ := seedagree.MaxOwnerCount(d, ds); m > worst {
					worst = m
				}
				for _, s := range seedagree.OwnerSeeds(ds) {
					ones += s.Ones()
					bits += s.Len()
				}
			}
			balance := float64(ones) / float64(bits)
			tbl.AddRow(fam.name, sc.name, trials, violations, worst, balance)
		}
	}
	return &Result{ID: "E-SEED-SPEC", Claim: "Seed(δ,ε) §3.1 conditions", Tables: []*stats.Table{tbl}}, nil
}
