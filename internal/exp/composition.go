package exp

import (
	"fmt"

	"lbcast/internal/amac"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-MMB", Claim: "multi-message broadcast over the layer ([9,10] composition)", Run: runMMB})
	register(Experiment{ID: "E-CONSENSUS", Claim: "consensus over the layer ([20] composition)", Run: runConsensusExp})
}

// runMMB measures multi-message broadcast: k concurrent floods from
// scattered sources on a cluster tree, the workload of the paper's
// companion results [9, 10] that motivated porting the abstract MAC layer
// to dual graphs.
func runMMB(size Size, seed uint64) (*Result, error) {
	ks := pick(size, []int{1, 2}, []int{1, 2, 4}, []int{1, 2, 4, 8})
	clusters := pick(size, 3, 4, 6)
	perCluster := pick(size, 3, 4, 5)
	trials := pick(size, 2, 3, 6)

	tbl := &stats.Table{
		Title:   "E-MMB: k concurrent multi-hop floods (multi-message broadcast)",
		Columns: []string{"k messages", "mean completion (rounds)", "completion/((D+k)·f_ack)", "all complete"},
		Notes: []string{
			fmt.Sprintf("random cluster tree, %d clusters × %d nodes, all trunk links unreliable (random½ schedule)", clusters, perCluster),
			"the MMB results over the abstract MAC layer [9,10] bound completion by O((D+k)·f_ack); the normalised column must stay below 1 (the bound holds, with slack at small k where floods never wait for acks)",
		},
	}
	rng := xrand.New(seed)
	for _, k := range ks {
		var completion, normalised stats.Summary
		completedAll := 0
		for trial := 0; trial < trials; trial++ {
			d, err := dualgraph.RandomClusterTree(clusters, perCluster, 2, rng)
			if err != nil {
				return nil, err
			}
			diam, _ := d.Gp.Diameter()
			p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), 0.25)
			if err != nil {
				return nil, err
			}
			var flood *amac.Flood
			net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.6, seed+uint64(trial)),
				Seed: seed + uint64(trial)*17 + uint64(k)}, p, func(svcs []core.Service) (sim.Environment, error) {
				flood = amac.NewFlood(amac.NewAdapters(svcs, amac.FromLBParams(p)))
				return flood, nil
			}, false)
			if err != nil {
				return nil, err
			}
			keys := make([]amac.FloodKey, k)
			for i := 0; i < k; i++ {
				keys[i], err = flood.Start((i*perCluster)%d.N(), fmt.Sprintf("mmb-%d", i))
				if err != nil {
					return nil, err
				}
			}
			// The MMB bound is O((D+k)·f_ack); give twice that as budget.
			budget := 2 * (diam + k) * p.TAckBound()
			done := 0
			for r := 0; r < budget && done < k; r++ {
				net.Engine.Step()
				done = 0
				for _, key := range keys {
					if _, ok := flood.Complete(key); ok {
						done++
					}
				}
			}
			if done == k {
				completedAll++
				worst := 0
				for _, key := range keys {
					if lat, ok := flood.Latency(key); ok && lat > worst {
						worst = lat
					}
				}
				completion.AddInt(worst)
				normalised.Add(float64(worst) / (float64(diam+k) * float64(p.TAckBound())))
			}
		}
		tbl.AddRow(k, completion.Mean(), normalised.Mean(),
			fmt.Sprintf("%d/%d", completedAll, trials))
	}
	return &Result{ID: "E-MMB", Claim: "[9,10] multi-message broadcast", Tables: []*stats.Table{tbl}}, nil
}

// runConsensusExp measures the min-id consensus composed over the layer:
// termination time and agreement rate across cluster sizes.
func runConsensusExp(size Size, seed uint64) (*Result, error) {
	ns := pick(size, []int{4, 8}, []int{4, 8, 16}, []int{4, 8, 16, 32})
	trials := pick(size, 3, 6, 12)
	cycles := 2

	tbl := &stats.Table{
		Title:   "E-CONSENSUS: min-id consensus over the abstract MAC layer",
		Columns: []string{"n", "trials", "agreement", "validity", "mean termination (rounds)", "bound cycles·(t_ack+phase)"},
		Notes: []string{
			fmt.Sprintf("single-hop clusters; %d broadcast cycles per node; random½ schedule", cycles),
			"agreement is probabilistic (amplified by cycles); validity and termination are deterministic",
		},
	}
	rng := xrand.New(seed)
	for _, n := range ns {
		d, err := dualgraph.SingleHopCluster(n, 1, rng)
		if err != nil {
			return nil, err
		}
		agree, valid := 0, 0
		var term stats.Summary
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), 0.2)
		if err != nil {
			return nil, err
		}
		bound := cycles * (p.TAckBound() + p.PhaseLen())
		initial := make([]any, n)
		for u := range initial {
			initial[u] = u * 7
		}
		for trial := 0; trial < trials; trial++ {
			var cons *amac.Consensus
			net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed+uint64(trial)),
				Seed: seed + uint64(trial)*29 + uint64(n)}, p, func(svcs []core.Service) (sim.Environment, error) {
				var err error
				cons, err = amac.NewConsensus(amac.NewAdapters(svcs, amac.FromLBParams(p)), initial, cycles)
				return cons, err
			}, false)
			if err != nil {
				return nil, err
			}
			budget := 2 * bound
			for r := 0; r < budget; r++ {
				net.Engine.Step()
				if _, done := cons.Done(); done {
					break
				}
			}
			round, done := cons.Done()
			if !done {
				continue // termination miss counts against agreement too
			}
			term.AddInt(round)
			value, ok := cons.Agreement()
			if ok {
				agree++
			}
			// Validity: decided value must be one of the initial values.
			if v, isInt := value.(int); isInt && v%7 == 0 && v/7 < n {
				valid++
			}
		}
		tbl.AddRow(n, trials, stats.FormatRate(agree, trials), stats.FormatRate(valid, trials),
			term.Mean(), bound)
	}
	return &Result{ID: "E-CONSENSUS", Claim: "[20] consensus composition", Tables: []*stats.Table{tbl}}, nil
}
