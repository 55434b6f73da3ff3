package main

// campus-ack: the paper's canonical local setting run as a service on a busy
// network. 1024 rooms of 8 nodes; each room is a reliable clique (its nodes
// sit in a disk of diameter 1) and neighbouring rooms, 2.2 apart, share only
// grey-zone links. One closed-loop client per room broadcasts from the
// room's first node and re-broadcasts the round after each ack. Scatter, the
// scheduler and delivery dominate each round; set-up is the O(n²)
// explicit-placement constructor, which scale-1e5 bypasses.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"lbcast"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
)

const (
	campusSide    = 32 // rooms per grid row; campusSide² rooms
	campusRooms   = campusSide * campusSide
	campusPerRoom = 8
	campusSpacing = 2.2
	campusR       = 1.5
	campusEps     = 0.25
	campusRounds  = 30_000
	// campusSetups is the number of constructor calls timed before the
	// repetitions, so setup_s is a median of several even when few
	// repetitions fit the budget.
	campusSetups = 5
)

// campusPayload is every broadcast's payload; its content plays no role.
const campusPayload = "campus"

// campusPlacement returns the seeded embedding: room k's centre sits on a
// campusSide-wide grid with campusSpacing pitch, and its nodes are uniform
// in the open disk of diameter 1 around it. Nodes 8k..8k+7 form room k.
func campusPlacement(seed uint64) []lbcast.Point {
	rng := rand.New(rand.NewPCG(seed, 0xca3b05ac))
	pts := make([]lbcast.Point, 0, campusRooms*campusPerRoom)
	for k := 0; k < campusRooms; k++ {
		cx, cy := float64(k%campusSide)*campusSpacing, float64(k/campusSide)*campusSpacing
		for i := 0; i < campusPerRoom; i++ {
			rad, th := 0.5*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
			pts = append(pts, lbcast.Point{X: cx + rad*math.Cos(th), Y: cy + rad*math.Sin(th)})
		}
	}
	return pts
}

// clientNet is what a workload's clients need from a network:
// *lbcast.Network in the untraced run, the traced mirror stack otherwise.
type clientNet interface {
	Broadcast(node int, payload any) (lbcast.MessageID, error)
	Step()
	Round() int
}

type campusMsg struct {
	startRound, ackRound int
	startNs, ackNs       int64
	heard                uint8 // room-mates (bit = node % 8) that received it
}

// campusClient is the 1024 closed-loop clients plus the output checks.
type campusClient struct {
	tAck, phase, stagger int

	msgs  map[lbcast.MessageID]*campusMsg
	acked []lbcast.MessageID // acks observed in the current round
	ready []int              // rooms whose client broadcasts next round
	next  int                // next room awaiting its first broadcast

	deliverNs, ackNs  []float64
	attempted, failed int
	fp                *fingerprint
}

func newCampusClient(tAck, phase int) *campusClient {
	return &campusClient{
		tAck: tAck, phase: phase, stagger: tAck / campusRooms,
		msgs: map[lbcast.MessageID]*campusMsg{}, fp: newFingerprint(),
	}
}

// onRecv records a room-mate's first reception of a message.
func (c *campusClient) onRecv(node int, id lbcast.MessageID, round int) {
	src := id.Src()
	if node/campusPerRoom != src/campusPerRoom || node == src {
		return
	}
	st := c.msgs[id]
	if st == nil {
		return // already acked: late receptions do not count
	}
	if bit := uint8(1) << (node % campusPerRoom); st.heard&bit == 0 {
		st.heard |= bit
		c.deliverNs = append(c.deliverNs, float64(now()-st.startNs))
		c.fp.ints(1, node, round)
	}
}

func (c *campusClient) onAck(id lbcast.MessageID, round int) {
	if st := c.msgs[id]; st != nil {
		st.ackNs, st.ackRound = now(), round
		c.acked = append(c.acked, id)
	}
}

// settle judges the acks of the round just run: an ack counts as failed if
// it came later than t_ack plus one phase, or before every room-mate heard
// the message. Each acked client broadcasts again next round.
func (c *campusClient) settle() {
	for _, id := range c.acked {
		st := c.msgs[id]
		delete(c.msgs, id)
		src := id.Src()
		mates := uint8(0xff) &^ (1 << (src % campusPerRoom))
		c.attempted++
		if st.ackRound-st.startRound > c.tAck+c.phase || st.heard != mates {
			c.failed++
		}
		c.ackNs = append(c.ackNs, float64(st.ackNs-st.startNs))
		c.fp.ints(2, src, st.ackRound)
		c.ready = append(c.ready, src/campusPerRoom)
	}
	c.acked = c.acked[:0]
}

// drive runs the closed loop for rounds rounds: room k's first broadcast
// enters at round k·stagger + 1, later ones the round after each ack.
func (c *campusClient) drive(nw clientNet, rounds int) error {
	bcast := func(room int) error {
		ts := now()
		id, err := nw.Broadcast(room*campusPerRoom, campusPayload)
		if err != nil {
			return fmt.Errorf("room %d: %w", room, err)
		}
		c.msgs[id] = &campusMsg{startRound: nw.Round(), startNs: ts}
		return nil
	}
	for nw.Round() < rounds {
		r := nw.Round()
		for ; c.next < campusRooms && c.next*c.stagger == r; c.next++ {
			if err := bcast(c.next); err != nil {
				return err
			}
		}
		for _, room := range c.ready {
			if err := bcast(room); err != nil {
				return err
			}
		}
		c.ready = c.ready[:0]
		nw.Step()
		c.settle()
	}
	// Broadcasts still open past their deadline failed; younger ones are
	// neither counted nor failed.
	for _, st := range c.msgs {
		if nw.Round()-st.startRound > c.tAck+c.phase {
			c.attempted++
			c.failed++
		}
	}
	return nil
}

// campusBuild is the untraced constructor call.
func campusBuild(pts []lbcast.Point, seed uint64) (*lbcast.Network, error) {
	return lbcast.NewGeometric(pts, campusR, lbcast.WithEpsilon(campusEps), lbcast.WithSeed(seed))
}

// timedBuild runs a constructor from a forced-GC start and returns its
// host time, so garbage from earlier work is not billed to it.
func timedBuild[T any](build func() (T, error)) (T, int64, error) {
	runtime.GC()
	t := now()
	v, err := build()
	return v, now() - t, err
}

// campusRep is one untraced repetition: build, run the closed loop, check.
type campusRep struct {
	setupNs, runNs int64
	liveMB         float64
	client         *campusClient
	fp             uint64
}

func runCampusRep(pts []lbcast.Point, seed uint64, rounds int) (*campusRep, error) {
	nw, setupNs, err := timedBuild(func() (*lbcast.Network, error) { return campusBuild(pts, seed) })
	if err != nil {
		return nil, err
	}
	sc := nw.Schedule()
	c := newCampusClient(sc.TAck, sc.PhaseRounds)
	nw.OnReceive(func(node int, d lbcast.Delivery) { c.onRecv(node, d.ID, d.Round) })
	nw.OnAck(func(_ int, id lbcast.MessageID) { c.onAck(id, nw.Round()) })
	t := now()
	if err := c.drive(nw, rounds); err != nil {
		return nil, err
	}
	runNs := now() - t
	rep := &campusRep{setupNs: setupNs, runNs: runNs, liveMB: liveMB(), client: c}
	tx, del, col := nw.Stats()
	c.fp.ints(tx, del, col, nw.Round())
	rep.fp = c.fp.sum()
	return rep, nil
}

func runCampus(seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	pts := campusPlacement(seed)
	rs := newRepStats()
	for i := 0; i < campusSetups; i++ {
		_, ns, err := timedBuild(func() (*lbcast.Network, error) { return campusBuild(pts, seed) })
		if err != nil {
			return nil, err
		}
		rs.add("setup_s", "s", seconds(ns))
	}
	out := &outcome{metrics: newMetricSet()}
	reps := 0
	err := repeat(budget-time.Since(start), func() error {
		rep, err := runCampusRep(pts, seed, campusRounds)
		if err != nil {
			return err
		}
		if reps == 0 {
			out.fp = rep.fp
			out.attempted, out.failed = rep.client.attempted, rep.client.failed
		} else if rep.fp != out.fp {
			out.problems = append(out.problems, fmt.Sprintf("repetition %d fingerprint %#x differs", reps, rep.fp))
		}
		reps++
		rs.add("setup_s", "s", seconds(rep.setupNs))
		rs.add("wall_s", "s", seconds(rep.setupNs+rep.runNs))
		rs.add("node_rounds_per_s", "1/s", float64(len(pts)*campusRounds)/seconds(rep.runNs))
		rs.add("live_mb", "MB", rep.liveMB)
		rs.latency("deliver_ms", rep.client.deliverNs)
		rs.latency("ack_ms", rep.client.ackNs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.into(out.metrics)
	return out, nil
}

// traceCampusRep builds the campus stack from the layers' constructors —
// lbcast.NewGeometric's pair loop and validated Dual, then the traced mirror
// of its assembly — runs the closed loop and returns the fingerprint, the
// stepping loop's host time and its allocated bytes.
func traceCampusRep(pts []lbcast.Point, seed uint64, rounds int, tr *tracer, ms *metricSet) (uint64, int64, uint64, error) {
	emb := make([]geo.Point, len(pts))
	for i, p := range pts {
		emb[i] = geo.Point{X: p.X, Y: p.Y}
	}
	heap0 := liveMB()
	sp := tr.begin("lbcast.pair_loop")
	g, gp := dualgraph.NewGraph(len(emb)), dualgraph.NewGraph(len(emb))
	for u := range emb {
		for v := u + 1; v < len(emb); v++ {
			switch dist := geo.Dist(emb[u], emb[v]); {
			case dist <= 1:
				g.AddEdge(u, v)
				gp.AddEdge(u, v)
			case dist <= campusR:
				gp.AddEdge(u, v)
			}
		}
	}
	tr.end(sp)
	sp = tr.begin("dualgraph.validate")
	d, err := dualgraph.NewDual(g, gp, emb, campusR)
	tr.end(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	ms.add("dualgraph.mb", "MB", liveMB()-heap0, "forced-GC heap delta")
	c := newCampusClient(0, 0)
	s, err := newBankStack(d, campusEps, seed, tr, ms, c.onRecv, c.onAck)
	if err != nil {
		return 0, 0, 0, err
	}
	c.tAck, c.phase, c.stagger = s.p.TAckBound(), s.p.PhaseLen(), s.p.TAckBound()/campusRooms
	runNs, alloc, err := tracedRun(s, tr, ms, func() error { return c.drive(s, rounds) })
	if err != nil {
		return 0, 0, 0, err
	}
	t := s.eng.Trace()
	c.fp.ints(t.Transmissions, t.Deliveries, t.Collisions, s.eng.Round())
	return c.fp.sum(), runNs, alloc, nil
}

func traceCampus(seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	pts := campusPlacement(seed)
	ref, err := runCampusRep(pts, seed, campusRounds)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: newMetricSet(), fp: ref.fp,
		attempted: ref.client.attempted, failed: ref.client.failed}
	tr := newTracer()
	var tracedNs int64
	var alloc uint64
	reps := 0
	err = repeat(budget-time.Since(start), func() error {
		fp, runNs, a, err := traceCampusRep(pts, seed, campusRounds, tr, out.metrics)
		if err != nil {
			return err
		}
		if fp != ref.fp {
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
	over := float64(tracedNs)/float64(reps*campusRounds) - float64(ref.runNs)/campusRounds
	layerTable(tr, out.metrics, over, alloc)
	construction(tr, out.metrics, reps, "lbcast.pair_loop", "dualgraph.validate")
	return out, tr.write(spanPath("campus-ack", seed))
}
