// Consensus: agreement composed over the abstract MAC layer.
//
// The paper argues that implementing the abstract MAC layer in the dual
// graph model ports the corpus of layer-based algorithms (its refs [10, 20,
// 6, 13, 12, 5]) into this harsher setting for free. This example runs a
// min-id consensus (in the spirit of Newport, PODC 2014) over LBAlg on a
// single-hop cluster whose grey-zone links are adversarially scheduled:
// every node proposes a value, everyone decides the same one.
package main

import (
	"fmt"
	"log"

	"lbcast/internal/amac"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func main() {
	const n = 8
	d, err := dualgraph.SingleHopCluster(n, 1, xrand.New(5))
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.2)
	if err != nil {
		log.Fatal(err)
	}

	initial := make([]any, n)
	for u := range initial {
		initial[u] = fmt.Sprintf("proposal-from-%d", u)
	}
	var cons *amac.Consensus
	net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, 9), Seed: 10}, p,
		func(svcs []core.Service) (sim.Environment, error) {
			var err error
			cons, err = amac.NewConsensus(amac.NewAdapters(svcs, amac.FromLBParams(p)), initial, 2)
			return cons, err
		}, false)
	if err != nil {
		log.Fatal(err)
	}
	e := net.Engine

	fmt.Printf("%d nodes, each proposing its own value; 2 broadcast cycles per node\n", n)
	fmt.Printf("layer guarantees: f_prog=%d, f_ack=%d, ε=%v\n\n", p.TProgBound(), p.TAckBound(), p.Eps1)

	budget := 2 * 2 * (p.TAckBound() + p.PhaseLen())
	for r := 0; r < budget; r++ {
		e.Step()
		if _, done := cons.Done(); done {
			break
		}
	}
	round, done := cons.Done()
	if !done {
		log.Fatal("consensus did not terminate within its deterministic budget")
	}
	value, agree := cons.Agreement()
	fmt.Printf("terminated at round %d\n", round)
	fmt.Printf("agreement: %v, decided value: %v\n", agree, value)
	for u := 0; u < n; u++ {
		v, _ := cons.Decision(u)
		fmt.Printf("  node %d decided %v\n", u, v)
	}
}
