package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

// maxCells caps the region map at a size a terminal can show; the area
// dualgraph.RandomGeometric accepts (sides up to geo.MaxCoord) would
// otherwise ask for up to ≈ 4·10¹⁶ cells.
const maxCells = 1 << 16

func main() {
	var (
		n      = flag.Int("n", 60, "node count")
		w      = flag.Float64("w", 8, "area width (the map has one cell per ½×½ region, at most 65536 cells)")
		h      = flag.Float64("h", 6, "area height")
		r      = flag.Float64("r", 1.5, "geographic parameter")
		seed   = flag.Uint64("seed", 1, "placement seed")
		phases = flag.Int("phases", 0, "also run LBAlg for this many phases and show an activity timeline (at most core.MaxRounds / phase length)")
	)
	flag.Parse()
	if err := run(os.Stdout, *n, *w, *h, *r, *seed, *phases); err != nil {
		fmt.Fprintln(os.Stderr, "lbviz:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, n int, w, h, r float64, seed uint64, phases int) error {
	// Character cell = one grid region (side ½): x → column, y → row.
	cols, rows := math.Floor(w/geo.RegionSide)+1, math.Floor(h/geo.RegionSide)+1
	if !(cols*rows <= maxCells) {
		return fmt.Errorf("-w %v -h %v: the region map would take %v cells, more than %d", w, h, cols*rows, maxCells)
	}
	if phases < 0 {
		return fmt.Errorf("-phases %d is negative", phases)
	}
	d, err := dualgraph.RandomGeometric(n, w, h, r, dualgraph.GreyUnreliable, xrand.New(seed))
	if err != nil {
		return err
	}
	var p core.Params
	if phases > 0 {
		if p, err = core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2); err != nil {
			return err
		}
		if maxPhases := core.MaxRounds / p.PhaseLen(); phases > maxPhases {
			return fmt.Errorf("-phases %d above %d for %d-round phases", phases, maxPhases, p.PhaseLen())
		}
	}
	grid := make([][]int, int(rows))
	for i := range grid {
		grid[i] = make([]int, int(cols))
	}
	for _, pt := range d.Emb {
		id := geo.RegionOf(pt)
		if int(id.J) < len(grid) && int(id.I) < len(grid[0]) && id.I >= 0 && id.J >= 0 {
			grid[id.J][id.I]++
		}
	}
	fmt.Fprintf(out, "dual graph: n=%d Δ=%d Δ'=%d unreliable edges=%d r=%v\n",
		d.N(), d.Delta(), d.DeltaPrime(), len(d.UnreliableEdges()), r)
	fmt.Fprintf(out, "each cell is one ½×½ grid region; digit = node count (•=0, *≥10)\n\n")
	for row := len(grid) - 1; row >= 0; row-- {
		var b strings.Builder
		for col := range grid[row] {
			switch c := grid[row][col]; {
			case c == 0:
				b.WriteByte('.')
			case c < 10:
				b.WriteByte(byte('0' + c))
			default:
				b.WriteByte('*')
			}
		}
		fmt.Fprintln(out, b.String())
	}
	fmt.Fprintln(out)

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
	if err := tbl.Render(out); err != nil {
		return err
	}
	if phases > 0 {
		return timeline(out, d, p, seed, phases)
	}
	return nil
}

// timeline runs LBAlg with a few saturated senders and renders per-phase
// channel activity as sparkline rows (one character per PhaseLen/60 rounds).
func timeline(out io.Writer, d *dualgraph.Dual, p core.Params, seed uint64, phases int) error {
	senders := []int{0}
	if d.N() > 3 {
		senders = []int{0, 1, 2}
	}
	tr := &sim.Trace{SampleRounds: true}
	net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: sched.NewRandom(0.5, seed), Seed: seed, Trace: tr}, p,
		func(svcs []core.Service) (sim.Environment, error) {
			return core.NewSaturatingEnv(svcs, senders), nil
		}, false)
	if err != nil {
		return err
	}
	net.Engine.Run(phases * p.PhaseLen())

	const width = 60
	bucket := (p.PhaseLen() + width - 1) / width
	marks := []byte(" .:-=+*#%@")
	fmt.Fprintf(out, "activity timeline: %d phases × %d rounds (preamble %d + body %d); one char ≈ %d rounds\n",
		phases, p.PhaseLen(), p.Ts, p.Tprog, bucket)
	fmt.Fprintf(out, "density scale %q (transmissions per round per node)\n\n", marks)
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
		fmt.Fprintf(out, "phase %2d |%s|  (preamble ends ≈ col %d)\n", ph+1, line.String(), boundary)
	}
	return nil
}
