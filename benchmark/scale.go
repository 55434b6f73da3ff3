package main

// scale-1e5: a random geometric network of 10⁵ nodes at density 3. Every
// 100th node broadcasts once, the broadcasts staggered over the first
// scaleStagger rounds so each has at least scaleRounds − scaleStagger rounds
// — two of its 585-round phases — to reach a neighbour: a broadcast waits up
// to a phase for its first phase boundary, and first receptions take up to
// ≈ 930 rounds. The run is far shorter than t_ack, so the operations are
// deliveries. The working set is much larger than the caches and almost
// every node is idle, so the per-node bank sweeps dominate each round;
// set-up is the grid-index → pair-scan → CSR builder, which campus-ack
// bypasses.
//
// Density 3 rather than the sweep family's 4: at density 4 the maximum
// degree Δ lands at 30–35 depending on the seed, straddling the step at 33
// where ⌈log₂ Δ⌉ and with it LBAlg's phase grows by a fifth (585 → 702
// rounds), so seeds would split into two different workloads. At density 3,
// Δ stays at 24–27.

import (
	"fmt"
	"time"

	"lbcast"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

const (
	scaleN       = 100_000
	scaleSide    = 182.57 // √(n/3): density 3
	scaleR       = 1.5
	scaleEps     = 0.25
	scaleEvery   = 100
	scaleRounds  = 1500
	scaleStagger = 300
	// scaleSetups is the number of constructor calls timed before the
	// repetitions (see campusSetups).
	scaleSetups = 3
)

const scalePayload = "scale"

type scaleMsg struct {
	startNs int64
	heard   int
}

// scaleClient issues the staggered broadcasts and records deliveries.
type scaleClient struct {
	msgs      map[lbcast.MessageID]*scaleMsg
	deliverNs []float64
	fp        *fingerprint
}

func newScaleClient() *scaleClient {
	return &scaleClient{msgs: map[lbcast.MessageID]*scaleMsg{}, fp: newFingerprint()}
}

// onRecv records a delivery; the layer outputs recv once per message and
// node, so each call is that node's first reception.
func (c *scaleClient) onRecv(node int, id lbcast.MessageID, round int) {
	st := c.msgs[id]
	if st == nil {
		return
	}
	st.heard++
	c.deliverNs = append(c.deliverNs, float64(now()-st.startNs))
	c.fp.ints(node, id.Src(), round)
}

// drive runs scaleRounds rounds; broadcaster i (node i·scaleEvery) enters at
// round ⌊i·scaleStagger/k⌋ + 1 for k broadcasters.
func (c *scaleClient) drive(nw clientNet) error {
	k := scaleN / scaleEvery
	next := 0
	for nw.Round() < scaleRounds {
		r := nw.Round()
		for ; next < k && next*scaleStagger/k == r; next++ {
			ts := now()
			id, err := nw.Broadcast(next*scaleEvery, scalePayload)
			if err != nil {
				return fmt.Errorf("node %d: %w", next*scaleEvery, err)
			}
			c.msgs[id] = &scaleMsg{startNs: ts}
		}
		nw.Step()
	}
	return nil
}

// check counts the broadcasts no node heard as failed.
func (c *scaleClient) check() (attempted, failed int) {
	for _, st := range c.msgs {
		attempted++
		if st.heard == 0 {
			failed++
		}
	}
	return attempted, failed
}

func scaleBuild(seed uint64) (*lbcast.Network, error) {
	return lbcast.NewRandomGeometric(scaleN, scaleSide, scaleSide, scaleR,
		lbcast.WithEpsilon(scaleEps), lbcast.WithSeed(seed))
}

func runScale(seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	rs := newRepStats()
	for i := 0; i < scaleSetups; i++ {
		_, ns, err := timedBuild(func() (*lbcast.Network, error) { return scaleBuild(seed) })
		if err != nil {
			return nil, err
		}
		rs.add("setup_s", "s", seconds(ns))
	}
	out := &outcome{metrics: newMetricSet()}
	reps := 0
	err := repeat(budget-time.Since(start), func() error {
		rep, err := runScaleRep(seed)
		if err != nil {
			return err
		}
		if reps == 0 {
			out.fp = rep.fp
			out.attempted, out.failed = rep.client.check()
		} else if rep.fp != out.fp {
			out.problems = append(out.problems, fmt.Sprintf("repetition %d fingerprint %#x differs", reps, rep.fp))
		}
		reps++
		rs.add("setup_s", "s", seconds(rep.setupNs))
		rs.add("wall_s", "s", seconds(rep.setupNs+rep.runNs))
		rs.add("node_rounds_per_s", "1/s", float64(scaleN*scaleRounds)/seconds(rep.runNs))
		rs.add("live_mb", "MB", rep.liveMB)
		rs.latency("deliver_ms", rep.client.deliverNs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.into(out.metrics)
	return out, nil
}

type scaleRep struct {
	setupNs, runNs int64
	liveMB         float64
	client         *scaleClient
	fp             uint64
}

func runScaleRep(seed uint64) (*scaleRep, error) {
	nw, setupNs, err := timedBuild(func() (*lbcast.Network, error) { return scaleBuild(seed) })
	if err != nil {
		return nil, err
	}
	c := newScaleClient()
	nw.OnReceive(func(node int, d lbcast.Delivery) { c.onRecv(node, d.ID, d.Round) })
	t := now()
	if err := c.drive(nw); err != nil {
		return nil, err
	}
	runNs := now() - t
	rep := &scaleRep{setupNs: setupNs, runNs: runNs, liveMB: liveMB(), client: c}
	tx, del, col := nw.Stats()
	c.fp.ints(tx, del, col, nw.Round())
	rep.fp = c.fp.sum()
	return rep, nil
}

func traceScale(seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	ref, err := runScaleRep(seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: newMetricSet(), fp: ref.fp}
	out.attempted, out.failed = ref.client.check()
	tr := newTracer()
	ms := out.metrics
	var tracedNs int64
	var alloc uint64
	reps := 0
	err = repeat(budget-time.Since(start), func() error {
		heap0 := liveMB()
		sp := tr.begin("dualgraph.build")
		d, err := dualgraph.RandomGeometric(scaleN, scaleSide, scaleSide, scaleR, dualgraph.GreyUnreliable, xrand.New(seed))
		tr.end(sp)
		if err != nil {
			return err
		}
		ms.add("dualgraph.mb", "MB", liveMB()-heap0, "forced-GC heap delta")
		// Reference timings of the builder's stages on the built network:
		// RandomGeometric runs them internally, so they are re-run here.
		sp = tr.begin("geo.grid_index")
		geo.BuildGridIndex(d.Emb)
		tr.end(sp)
		gEdges, gpEdges := d.G.Edges(), d.Gp.Edges()
		sp = tr.begin("dualgraph.csr")
		dualgraph.NewGraphFromEdges(scaleN, gEdges)
		dualgraph.NewGraphFromEdges(scaleN, gpEdges)
		tr.end(sp)
		sp = tr.begin("dualgraph.validate")
		err = d.Validate()
		tr.end(sp)
		if err != nil {
			return err
		}
		c := newScaleClient()
		s, err := newBankStack(d, scaleEps, seed, tr, ms, c.onRecv, func(sim.MsgID, int) {})
		if err != nil {
			return err
		}
		runNs, a, err := tracedRun(s, tr, ms, func() error { return c.drive(s) })
		if err != nil {
			return err
		}
		tr1 := s.eng.Trace()
		c.fp.ints(tr1.Transmissions, tr1.Deliveries, tr1.Collisions, s.eng.Round())
		if fp := c.fp.sum(); fp != ref.fp {
			out.problems = append(out.problems, fmt.Sprintf("traced fingerprint %#x differs from untraced %#x", fp, ref.fp))
		}
		tracedNs += runNs
		alloc += a
		reps++
		return nil
	})
	if err != nil {
		return nil, err
	}
	over := float64(tracedNs)/float64(reps*scaleRounds) - float64(ref.runNs)/scaleRounds
	layerTable(tr, ms, over, alloc)
	construction(tr, ms, reps, "dualgraph.build")
	per := func(name string) float64 { return seconds(tr.total(name)) / float64(reps) }
	ms.add("geo.grid_index_s", "s", per("geo.grid_index"), "reference re-run on the built embedding")
	ms.add("dualgraph.csr_s", "s", per("dualgraph.csr"), "reference re-run: G and G′ from the built edge lists")
	ms.add("dualgraph.validate_s", "s", per("dualgraph.validate"), "reference: Dual.Validate, which the trusted build skips")
	return out, tr.write(spanPath("scale-1e5", seed))
}
