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
	register(Experiment{ID: "E-AMAC", Claim: "abstract MAC layer composition: global broadcast over LBAlg", Run: runAmac})
}

// runAmac floods a message over multi-hop dual graphs through the abstract
// MAC adapter and reports completion latency normalised by (graph diameter
// × phase length) — the composition argument for porting abstract-MAC-layer
// algorithms to the dual graph model.
func runAmac(size Size, seed uint64) (*Result, error) {
	trials := pick(size, 2, 4, 8)
	lineLen := pick(size, 6, 10, 16)
	gridSide := pick(size, 3, 4, 6)
	eps := 0.25

	rng := xrand.New(seed)
	type topo struct {
		name  string
		build func() (*dualgraph.Dual, error)
	}
	topos := []topo{
		{fmt.Sprintf("line-%d", lineLen), func() (*dualgraph.Dual, error) { return dualgraph.Line(lineLen, 1, 1.5, rng) }},
		{fmt.Sprintf("grid-%dx%d", gridSide, gridSide), func() (*dualgraph.Dual, error) {
			return dualgraph.GridLattice(gridSide, 1, 1.5, rng)
		}},
		{"two-tier-3x4", func() (*dualgraph.Dual, error) { return dualgraph.TwoTierClusters(3, 4, 2, rng) }},
	}

	tbl := &stats.Table{
		Title:   "E-AMAC: multi-hop flood over the abstract MAC layer",
		Columns: []string{"topology", "diameter", "f_prog", "mean latency (rounds)", "latency/(diam·phase)", "completed"},
		Notes: []string{
			"flood = each node re-broadcasts each message once (the basic abstract-MAC global broadcast)",
			"normalised latency ≈ constant across topologies: completion is O(diameter · f_prog)-shaped",
		},
	}
	for _, tp := range topos {
		d, err := tp.build()
		if err != nil {
			return nil, err
		}
		diam, connected := d.Gp.Diameter()
		if !connected {
			return nil, fmt.Errorf("E-AMAC: %s disconnected in G'", tp.name)
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), max(1, d.R), eps)
		if err != nil {
			return nil, err
		}
		var lat stats.Summary
		completed := 0
		for trial := 0; trial < trials; trial++ {
			var flood *amac.Flood
			net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.7, seed+uint64(trial)),
				Seed: seed + uint64(trial)*41}, p, func(svcs []core.Service) (sim.Environment, error) {
				flood = amac.NewFlood(amac.NewAdapters(svcs, amac.FromLBParams(p)))
				return flood, nil
			}, false)
			if err != nil {
				return nil, err
			}
			key, err := flood.Start(0, "flood")
			if err != nil {
				return nil, err
			}
			budget := (diam + 3) * 6 * p.PhaseLen()
			for r := 0; r < budget; r++ {
				net.Engine.Step()
				if _, done := flood.Complete(key); done {
					break
				}
			}
			if l, ok := flood.Latency(key); ok {
				lat.AddInt(l)
				completed++
			}
		}
		norm := lat.Mean() / float64(diam*p.PhaseLen())
		tbl.AddRow(tp.name, diam, p.TProgBound(), lat.Mean(), norm,
			fmt.Sprintf("%d/%d", completed, trials))
	}
	return &Result{ID: "E-AMAC", Claim: "abstract MAC composition", Tables: []*stats.Table{tbl}}, nil
}
