package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/xrand"
)

func main() {
	var (
		n      = flag.Int("n", 60, "node count")
		w      = flag.Float64("w", 8, "area width")
		h      = flag.Float64("h", 6, "area height")
		r      = flag.Float64("r", 1.5, "geographic parameter")
		seed   = flag.Uint64("seed", 1, "placement seed")
		phases = flag.Int("phases", 0, "also run LBAlg for this many phases and show an activity timeline")
	)
	flag.Parse()
	if err := run(*n, *w, *h, *r, *seed, *phases); err != nil {
		fmt.Fprintln(os.Stderr, "lbviz:", err)
		os.Exit(1)
	}
}

func run(n int, w, h, r float64, seed uint64, phases int) error {
	d, err := dualgraph.RandomGeometric(n, w, h, r, dualgraph.GreyUnreliable, xrand.New(seed))
	if err != nil {
		return err
	}
	// Character cell = one grid region (side ½): x → column, y → row.
	cols := int(w/geo.RegionSide) + 1
	rows := int(h/geo.RegionSide) + 1
	grid := make([][]int, rows)
	for i := range grid {
		grid[i] = make([]int, cols)
	}
	for _, p := range d.Emb {
		id := geo.RegionOf(p)
		if int(id.J) < rows && int(id.I) < cols && id.I >= 0 && id.J >= 0 {
			grid[id.J][id.I]++
		}
	}
	fmt.Printf("dual graph: n=%d Δ=%d Δ'=%d unreliable edges=%d r=%v\n",
		d.N(), d.Delta(), d.DeltaPrime(), len(d.UnreliableEdges()), r)
	fmt.Printf("each cell is one ½×½ grid region; digit = node count (•=0, *≥10)\n\n")
	for row := rows - 1; row >= 0; row-- {
		var b strings.Builder
		for col := 0; col < cols; col++ {
			switch c := grid[row][col]; {
			case c == 0:
				b.WriteByte('.')
			case c < 10:
				b.WriteByte(byte('0' + c))
			default:
				b.WriteByte('*')
			}
		}
		fmt.Println(b.String())
	}
	fmt.Println()

	var degG, degGp stats.Summary
	for u := 0; u < d.N(); u++ {
		degG.AddInt(d.G.Degree(u))
		degGp.AddInt(d.Gp.Degree(u))
	}
	tbl := &stats.Table{Title: "degree summary", Columns: []string{"graph", "mean", "max"}}
	tbl.AddRow("G (reliable)", degG.Mean(), degG.Max())
	tbl.AddRow("G' (all links)", degGp.Mean(), degGp.Max())
	idx := geo.BuildGridIndex(d.Emb)
	g := geo.BuildRegionGraph(idx.Regions(), r)
	ok, region, hops, count := g.CheckFBounded(3)
	if ok {
		tbl.Notes = append(tbl.Notes, "region partition is f-bounded for h ≤ 3 (Lemma A.1)")
	} else {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("f-bound VIOLATION at %v: %d regions within %d hops", region, count, hops))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if phases > 0 {
		return timeline(d, seed, phases)
	}
	return nil
}

// timeline runs LBAlg with a few saturated senders and renders per-phase
// channel activity as sparkline rows (one character per PhaseLen/60 rounds).
func timeline(d *dualgraph.Dual, seed uint64, phases int) error {
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2)
	if err != nil {
		return err
	}
	procs := make([]sim.Process, d.N())
	svcs := make([]core.Service, d.N())
	plan := core.NewPhasePlan(p)
	for u := 0; u < d.N(); u++ {
		alg := core.NewLBAlgWithPlan(plan)
		alg.RecordHears = false
		procs[u] = alg
		svcs[u] = alg
	}
	senders := []int{0}
	if d.N() > 3 {
		senders = []int{0, 1, 2}
	}
	env := core.NewSaturatingEnv(svcs, senders)
	tr := &sim.Trace{SampleRounds: true}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs,
		Sched: sched.NewRandom(0.5, seed), Env: env, Seed: seed, Trace: tr})
	if err != nil {
		return err
	}
	e.Run(phases * p.PhaseLen())

	const width = 60
	bucket := (p.PhaseLen() + width - 1) / width
	marks := []byte(" .:-=+*#%@")
	fmt.Printf("activity timeline: %d phases × %d rounds (preamble %d + body %d); one char ≈ %d rounds\n",
		phases, p.PhaseLen(), p.Ts, p.Tprog, bucket)
	fmt.Printf("density scale %q (transmissions per round per node)\n\n", marks)
	for ph := 0; ph < phases; ph++ {
		var line strings.Builder
		for b := 0; b < width; b++ {
			lo := ph*p.PhaseLen() + b*bucket
			hi := lo + bucket
			if hi > (ph+1)*p.PhaseLen() {
				hi = (ph + 1) * p.PhaseLen()
			}
			tx := 0
			for i := lo; i < hi && i < len(tr.PerRound); i++ {
				tx += tr.PerRound[i].Transmissions
			}
			rounds := hi - lo
			if rounds <= 0 {
				break
			}
			density := float64(tx) / float64(rounds*d.N())
			idx := int(density * float64(len(marks)) * 4) // ≥25% density saturates
			if idx >= len(marks) {
				idx = len(marks) - 1
			}
			line.WriteByte(marks[idx])
		}
		boundary := p.Ts * width / p.PhaseLen()
		fmt.Printf("phase %2d |%s|  (preamble ends ≈ col %d)\n", ph+1, line.String(), boundary)
	}
	return nil
}
