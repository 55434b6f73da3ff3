package exp

import (
	"fmt"
	"math"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-PROG", Claim: "Theorem 4.1: progress within t_prog w.p. ≥ 1−ε", Run: runProgress})
	register(Experiment{ID: "E-ACK", Claim: "Theorem 4.1: reliability + t_ack", Run: runAck})
	register(Experiment{ID: "E-RECV-PROB", Claim: "Lemma 4.2: per-round reception probability", Run: runRecvProb})
	register(Experiment{ID: "E-DET", Claim: "§4.1 deterministic conditions", Run: runDeterministic})
}

// runProgress sweeps Δ on single-hop clusters with saturated senders and
// measures the per-(node, phase) progress success rate against 1−ε₁, plus
// the scaling of t_prog itself.
func runProgress(size Size, seed uint64) (*Result, error) {
	deltas := pick(size, []int{4, 8}, []int{4, 8, 16}, []int{4, 8, 16, 32})
	phases := pick(size, 4, 8, 16)
	eps := 0.2

	tbl := &stats.Table{
		Title:   "E-PROG: progress per phase on saturated single-hop clusters (Theorem 4.1)",
		Columns: []string{"Delta", "t_prog (rounds)", "opportunities", "successes", "rate", "target 1−ε", "95% CI low"},
		Notes: []string{
			fmt.Sprintf("ε₁=%v; three saturated senders per cluster; oblivious random scheduler p=½", eps),
		},
	}
	var xs, ys []float64
	rng := xrand.New(seed)
	for _, delta := range deltas {
		d, err := dualgraph.SingleHopCluster(delta, 1, rng)
		if err != nil {
			return nil, err
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps)
		if err != nil {
			return nil, err
		}
		senders := 3
		if senders > delta-1 {
			senders = delta - 1
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(delta)},
			p, saturate(senderRange(senders)), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run(phases * p.PhaseLen())
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-PROG Δ=%d: %w", delta, err)
		}
		lo, _ := stats.WilsonCI(rep.ProgressSuccesses, rep.ProgressOpportunities, 1.96)
		tbl.AddRow(delta, p.TProgBound(), rep.ProgressOpportunities, rep.ProgressSuccesses,
			rep.ProgressRate(), 1-eps, lo)
		xs = append(xs, float64(p.LogDelta))
		ys = append(ys, float64(p.TProgBound()))
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"log–log slope of t_prog vs logΔ: %.3f (theory ≈ 1: t_prog = O(logΔ·log(log⁴Δ/ε)))",
		stats.LogLogSlope(xs, ys)))
	return &Result{ID: "E-PROG", Claim: "Theorem 4.1 progress", Tables: []*stats.Table{tbl}}, nil
}

// runAck measures reliability (all reliable neighbors recv before ack) and
// acknowledgement latency across Δ, against t_ack = O(Δ·log(Δ/ε)·…).
func runAck(size Size, seed uint64) (*Result, error) {
	deltas := pick(size, []int{4, 8}, []int{4, 8, 16}, []int{4, 8, 16, 32})
	messages := pick(size, 3, 6, 12)
	eps := 0.2

	tbl := &stats.Table{
		Title:   "E-ACK: reliability and acknowledgement latency (Theorem 4.1)",
		Columns: []string{"Delta", "t_ack (bound)", "broadcasts", "reliable", "rate", "target 1−ε", "mean ack rounds", "max ack rounds"},
		Notes: []string{
			fmt.Sprintf("ε₁=%v; sequential single-shot broadcasts on single-hop clusters; random scheduler p=½", eps),
			"timely acknowledgement is deterministic: max ack rounds must stay ≤ t_ack",
		},
	}
	var xs, ys []float64
	rng := xrand.New(seed)
	for _, delta := range deltas {
		d, err := dualgraph.SingleHopCluster(delta, 1, rng)
		if err != nil {
			return nil, err
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps)
		if err != nil {
			return nil, err
		}
		sends := make([]core.Send, messages)
		for i := range sends {
			// Back-to-back broadcasts from rotating senders; the env defers
			// any send that lands while its node is still active.
			sends[i] = core.Send{Node: i % delta, Round: 1 + i*p.TAckBound(), Payload: i}
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed + uint64(delta)*13},
			p, singleShot(sends), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run((messages + 1) * p.TAckBound())
		rep := net.Mon.Report()
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("E-ACK Δ=%d: %w", delta, err)
		}
		var ackSummary stats.Summary
		for _, l := range rep.AckLatencies {
			ackSummary.AddInt(l)
		}
		tbl.AddRow(delta, p.TAckBound(), rep.Broadcasts, rep.ReliableSuccesses,
			rep.ReliabilityRate(), 1-eps, ackSummary.Mean(), ackSummary.Max())
		xs = append(xs, float64(delta))
		ys = append(ys, float64(p.TAckBound()))
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"log–log slope of t_ack vs Δ: %.3f (theory: above 1 by the polylog factor — t_ack = O(Δ·log(Δ/ε)·logΔ·…))",
		stats.LogLogSlope(xs, ys)))
	return &Result{ID: "E-ACK", Claim: "Theorem 4.1 reliability/t_ack", Tables: []*stats.Table{tbl}}, nil
}

// runRecvProb estimates the per-body-round reception probability p_u at a
// saturated receiver and the per-sender share p_{u,v}, against the
// Lemma 4.2 bounds.
func runRecvProb(size Size, seed uint64) (*Result, error) {
	delta := pick(size, 8, 16, 32)
	phases := pick(size, 12, 48, 96)
	eps := 0.2

	rng := xrand.New(seed)
	d, err := dualgraph.SingleHopCluster(delta, 1, rng)
	if err != nil {
		return nil, err
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, eps)
	if err != nil {
		return nil, err
	}
	receiver := delta - 1
	senders := senderRange(delta - 1)
	net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed},
		p, saturate(senders), true)
	if err != nil {
		return nil, err
	}
	net.Engine.Run(phases * p.PhaseLen())

	hears := 0
	bySender := make(map[int]int)
	for _, ev := range net.Engine.Trace().ByKind(sim.EvHear) {
		if ev.Node == receiver {
			hears++
			bySender[ev.From]++
		}
	}
	bodyRounds := phases * p.Tprog
	pu := float64(hears) / float64(bodyRounds)
	puBound := lemma42Bound(p)

	tbl := &stats.Table{
		Title:   "E-RECV-PROB: per-body-round reception probability (Lemma 4.2)",
		Columns: []string{"quantity", "measured", "theory bound", "satisfied"},
		Notes: []string{
			fmt.Sprintf("single-hop cluster Δ=%d, %d saturated senders, receiver node %d, %d body rounds",
				delta, len(senders), receiver, bodyRounds),
		},
	}
	tbl.AddRow("p_u (any reception)", pu, fmt.Sprintf("≥ %.4f", puBound), fmt.Sprintf("%v", pu >= puBound))
	// p_{u,v} ≥ p_u/Δ′ holds per sender v. The empirical per-sender rate is
	// a noisy estimate (tens of receptions per sender), so the check is
	// statistical: a sender violates the bound only if its Wilson interval
	// lies entirely below p_u/Δ′.
	puvBound := pu / float64(p.DeltaPrime)
	minShare, meanShare := 1.0, 0.0
	violators := 0
	for _, v := range senders {
		share := float64(bySender[v]) / float64(bodyRounds)
		meanShare += share / float64(len(senders))
		if share < minShare {
			minShare = share
		}
		if _, hi := stats.WilsonCI(bySender[v], bodyRounds, 1.96); hi < puvBound {
			violators++
		}
	}
	tbl.AddRow("mean_v p_{u,v}", meanShare, fmt.Sprintf("≥ p_u/Δ′ = %.5f", puvBound),
		fmt.Sprintf("%v", meanShare >= puvBound))
	tbl.AddRow("min_v p_{u,v} (noisy)", minShare, "informational", "–")
	tbl.AddRow("senders with CI below p_u/Δ′", violators, "0", fmt.Sprintf("%v", violators == 0))
	return &Result{ID: "E-RECV-PROB", Claim: "Lemma 4.2", Tables: []*stats.Table{tbl}}, nil
}

// lemma42Bound evaluates c₂/(r²·log(1/ε₂)·logΔ) with the calibrated c₂.
func lemma42Bound(p core.Params) float64 {
	const c2 = 0.05 // calibrated practical constant for Lemma 4.2's c₂
	return c2 / (p.R * p.R * math.Log2(1/p.Eps2) * float64(p.LogDelta))
}

// runDeterministic runs every workload family and requires zero violations
// of Timely Acknowledgement and Validity.
func runDeterministic(size Size, seed uint64) (*Result, error) {
	phases := pick(size, 3, 6, 10)
	rng := xrand.New(seed)

	type workload struct {
		name  string
		build func() (*dualgraph.Dual, error)
		sch   sim.LinkScheduler
	}
	workloads := []workload{
		{"cluster/never", func() (*dualgraph.Dual, error) { return dualgraph.SingleHopCluster(8, 1, rng) }, sched.Never{}},
		{"cluster/always", func() (*dualgraph.Dual, error) { return dualgraph.SingleHopCluster(8, 1, rng) }, sched.Always{}},
		{"two-tier/random", func() (*dualgraph.Dual, error) { return dualgraph.TwoTierClusters(3, 4, 2, rng) }, sched.NewRandom(0.5, seed)},
		{"line/periodic", func() (*dualgraph.Dual, error) { return dualgraph.Line(12, 1, 1.5, rng) }, sched.Periodic{Period: 7, OnRounds: 3}},
		{"geometric/antidecay", func() (*dualgraph.Dual, error) {
			return dualgraph.RandomGeometric(60, 4, 4, 1.5, dualgraph.GreyUnreliable, rng)
		}, sched.AntiDecay{CycleLen: 4}},
	}
	tbl := &stats.Table{
		Title:   "E-DET: deterministic conditions (Timely Ack, Validity) across workloads",
		Columns: []string{"workload", "rounds", "events", "violations"},
		Notes:   []string{"every row must report 0 violations in every execution (§4.1 deterministic conditions)"},
	}
	for _, w := range workloads {
		d, err := w.build()
		if err != nil {
			return nil, err
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.25)
		if err != nil {
			return nil, err
		}
		net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: w.sch, Seed: seed},
			p, saturate(senderRange(min(3, d.N()))), true)
		if err != nil {
			return nil, err
		}
		net.Engine.Run(phases * p.PhaseLen())
		tbl.AddRow(w.name, net.Engine.Round(), net.Engine.Trace().Len(), net.Mon.TotalViolations())
		if err := net.Mon.Report().Err(); err != nil {
			return nil, fmt.Errorf("E-DET %s: %w", w.name, err)
		}
	}
	return &Result{ID: "E-DET", Claim: "§4.1 deterministic conditions", Tables: []*stats.Table{tbl}}, nil
}
