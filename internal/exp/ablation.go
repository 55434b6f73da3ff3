package exp

import (
	"fmt"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-ABL-FREQ", Claim: "§4.2 remark: less frequent seed agreement", Run: runAblationSeedFreq})
	register(Experiment{ID: "E-CONST", Claim: "calibration of practical constants", Run: runConstants})
}

// runAblationSeedFreq implements the Section 4.2 remark: run the seed
// agreement preamble only every k phases (with seeds sized for k phases)
// and reclaim skipped preambles as extra body rounds. The worst-case bounds
// are unchanged; the measurable effect is more progress opportunities per
// wall-clock round.
func runAblationSeedFreq(size Size, seed uint64) (*Result, error) {
	ks := []int{1, 2, 4, 8}
	phasesBudget := pick(size, 6, 12, 24)
	delta := pick(size, 8, 12, 16)
	eps := 0.2

	rng := xrand.New(seed)
	d, err := dualgraph.SingleHopCluster(delta, 1, rng)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:   "E-ABL-FREQ: seed agreement every k phases (§4.2 remark)",
		Columns: []string{"k", "kappa (bits)", "preamble overhead", "hears per 1000 rounds", "progress rate"},
		Notes: []string{
			"preamble overhead = fraction of rounds spent in seed agreement (Ts/(k·phase))",
			"larger k trades seed length (κ) for more body rounds per wall-clock round",
		},
	}
	for _, k := range ks {
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps, core.WithSeedEveryKPhases(k))
		if err != nil {
			return nil, err
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(k)},
			p, saturate(senderRange(3)), true)
		if err != nil {
			return nil, err
		}
		rounds := phasesBudget * p.PhaseLen()
		net.Engine.Run(rounds)
		hears := len(net.Engine.Trace().ByKind(sim.EvHear))
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-ABL-FREQ k=%d: %w", k, err)
		}
		overhead := float64(p.Ts) / float64(k*p.PhaseLen())
		tbl.AddRow(k, p.Kappa, overhead, 1000*float64(hears)/float64(rounds), rep.ProgressRate())
	}
	return &Result{ID: "E-ABL-FREQ", Claim: "§4.2 seed frequency ablation", Tables: []*stats.Table{tbl}}, nil
}

// runConstants sweeps the practical constants replacing the paper's
// worst-case ones, showing where the guarantees start to hold — the
// justification for the defaults baked into DeriveParams.
func runConstants(size Size, seed uint64) (*Result, error) {
	delta := pick(size, 8, 12, 16)
	phases := pick(size, 4, 8, 16)
	eps := 0.2
	rng := xrand.New(seed)
	d, err := dualgraph.SingleHopCluster(delta, 1, rng)
	if err != nil {
		return nil, err
	}

	progTbl := &stats.Table{
		Title:   "E-CONST(a): progress rate vs the T_prog constant c₁",
		Columns: []string{"c1", "t_prog", "progress rate", "target 1−ε", "meets target"},
		Notes:   []string{fmt.Sprintf("defaults: c₁=%v; ε₁=%v; saturated single-hop cluster Δ=%d", core.DefaultC1, eps, delta)},
	}
	for _, c1 := range []float64{1, 2, 4, 6, 8} {
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps, core.WithC1(c1))
		if err != nil {
			return nil, err
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(c1*10)},
			p, saturate(senderRange(3)), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run(phases * p.PhaseLen())
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-CONST c1=%v: %w", c1, err)
		}
		rate := rep.ProgressRate()
		progTbl.AddRow(c1, p.TProgBound(), rate, 1-eps, fmt.Sprintf("%v", rate >= 1-eps))
	}

	ackTbl := &stats.Table{
		Title:   "E-CONST(b): reliability vs the T_ack constant",
		Columns: []string{"cAck", "Tack (phases)", "reliability rate", "target 1−ε", "meets target"},
	}
	for _, cAck := range []float64{0.25, 0.5, 1, 2} {
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps, core.WithCAck(cAck))
		if err != nil {
			return nil, err
		}
		msgs := pick(size, 3, 5, 8)
		sends := make([]core.Send, msgs)
		for i := range sends {
			sends[i] = core.Send{Node: i % delta, Round: 1 + i*p.TAckBound(), Payload: i}
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(cAck*100)},
			p, singleShot(sends), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run((msgs + 1) * p.TAckBound())
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-CONST cAck=%v: %w", cAck, err)
		}
		rate := rep.ReliabilityRate()
		ackTbl.AddRow(cAck, p.Tack, rate, 1-eps, fmt.Sprintf("%v", rate >= 1-eps))
	}
	return &Result{ID: "E-CONST", Claim: "constant calibration", Tables: []*stats.Table{progTbl, ackTbl}}, nil
}
