// Amacflood: global broadcast composed over the abstract MAC layer.
//
// The paper's headline application: once LBAlg implements the abstract MAC
// layer in the dual graph model, algorithms written against that layer port
// over unchanged. Here the classic flood (each node re-broadcasts each new
// message once) pushes a message across a multi-hop grid whose diagonal
// links are all unreliable.
package main

import (
	"fmt"
	"log"

	"lbcast/internal/amac"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

func main() {
	const side = 4
	d, err := dualgraph.GridLattice(side, 1, 1.5, xrand.New(7))
	if err != nil {
		log.Fatal(err)
	}
	diam, _ := d.G.Diameter()
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1.5, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	g := amac.Guarantees{FAck: p.TAckBound(), FProg: p.TProgBound(), Eps: p.Eps1}
	fmt.Printf("grid %dx%d: Δ=%d Δ'=%d diameter=%d\n", side, side, d.Delta(), d.DeltaPrime(), diam)
	fmt.Printf("abstract MAC guarantees: f_prog=%d f_ack=%d ε=%v\n\n", g.FProg, g.FAck, g.Eps)

	layers := make([]amac.Layer, d.N())
	procs := make([]sim.Process, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		alg.RecordHears = false
		layers[u] = amac.NewAdapter(alg, g)
		procs[u] = alg
	}
	flood := amac.NewFlood(layers)
	e, err := sim.New(sim.Config{Dual: d, Procs: procs,
		Sched: sched.NewRandom(0.6, 3), Env: flood, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	key, err := flood.Start(0, "multi-hop payload")
	if err != nil {
		log.Fatal(err)
	}
	budget := (diam + 2) * 8 * p.PhaseLen()
	lastCoverage := 0
	for r := 0; r < budget; r++ {
		e.Step()
		if c := flood.Coverage(key); c != lastCoverage {
			fmt.Printf("round %6d: %2d/%d nodes reached\n", e.Round(), c, d.N())
			lastCoverage = c
		}
		if _, done := flood.Complete(key); done {
			break
		}
	}
	if lat, ok := flood.Latency(key); ok {
		fmt.Printf("\nflood complete in %d rounds ≈ %.1f × (diameter × phase length)\n",
			lat, float64(lat)/float64(diam*p.PhaseLen()))
	} else {
		fmt.Printf("\nflood incomplete within %d rounds (%d/%d reached)\n", budget, flood.Coverage(key), d.N())
	}
}
