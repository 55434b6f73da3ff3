package core

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// buildLB wires LBAlg processes over a dual graph and returns the engine,
// the typed processes and the trace.
func buildLB(t testing.TB, d *dualgraph.Dual, p Params, s sim.LinkScheduler, env func([]Service) sim.Environment, seed uint64) (*sim.Engine, []*LBAlg) {
	t.Helper()
	procs := make([]*LBAlg, d.N())
	simProcs := make([]sim.Process, d.N())
	services := make([]Service, d.N())
	for u := range procs {
		procs[u] = NewLBAlg(p)
		simProcs[u] = procs[u]
		services[u] = procs[u]
	}
	var environment sim.Environment
	if env != nil {
		environment = env(services)
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: s, Env: environment, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, procs
}

func testParams(t testing.TB, delta, deltaPrime int, eps float64) Params {
	t.Helper()
	p, err := DeriveParams(delta, deltaPrime, 1, eps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// commitDirect installs a committed seed bypassing the preamble (the
// whitebox tests' stand-in for commitSeed) and decodes one phase of body
// coins from it, exactly as commitSeed does.
func commitDirect(l *LBAlg, seed xrand.Seed) {
	l.committed, l.cur = seed, 0
	l.plan.decodeCoins(seed, &l.cur, l.coins.reuse(l.plan.tprog))
}

func TestSingletonAckWithinBound(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 1, 1, 0.25)
	e, _ := buildLB(t, d, p, nil, func(procs []Service) sim.Environment {
		return NewSingleShotEnv(procs, []Send{{Node: 0, Round: 1, Payload: "solo"}})
	}, 1)
	e.Run(p.TAckBound() + p.PhaseLen())

	tr := e.Trace()
	bcasts := tr.ByKind(sim.EvBcast)
	acks := tr.ByKind(sim.EvAck)
	if len(bcasts) != 1 || len(acks) != 1 {
		t.Fatalf("bcasts=%d acks=%d, want 1 and 1", len(bcasts), len(acks))
	}
	if acks[0].MsgID != bcasts[0].MsgID {
		t.Error("ack names a different message")
	}
	latency := acks[0].Round - bcasts[0].Round
	if latency <= 0 || latency > p.TAckBound() {
		t.Errorf("ack latency %d outside (0, %d]", latency, p.TAckBound())
	}
}

func TestBcastWhileActiveRejected(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 1, 1, 0.25)
	e, procs := buildLB(t, d, p, nil, nil, 1)
	e.Run(1)
	if _, err := procs[0].Bcast("first"); err != nil {
		t.Fatalf("first bcast rejected: %v", err)
	}
	if _, err := procs[0].Bcast("second"); err == nil {
		t.Fatal("second bcast accepted while first active")
	}
	if !procs[0].Active() {
		t.Error("node not active after bcast")
	}
	if m, ok := procs[0].ActiveMessage(); !ok || m.Payload != "first" {
		t.Errorf("ActiveMessage = %v, %v", m, ok)
	}
}

func TestTwoNodeDelivery(t *testing.T) {
	// Sender 0, receiver 1, reliable edge: the receiver should recv the
	// message before the ack in most trials (reliability ≥ 1−ε).
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 2, 2, 0.2)
	const trials = 10
	delivered := 0
	for trial := uint64(0); trial < trials; trial++ {
		e, _ := buildLB(t, d, p, nil, func(procs []Service) sim.Environment {
			return NewSingleShotEnv(procs, []Send{{Node: 0, Round: 1, Payload: "payload"}})
		}, trial)
		e.Run(p.TAckBound() + p.PhaseLen())
		tr := e.Trace()
		acks := tr.ByKind(sim.EvAck)
		if len(acks) != 1 {
			t.Fatalf("trial %d: %d acks", trial, len(acks))
		}
		recvs := tr.ByKind(sim.EvRecv)
		for _, rv := range recvs {
			if rv.Node == 1 && rv.Round <= acks[0].Round {
				delivered++
				break
			}
		}
	}
	if delivered < trials*8/10 {
		t.Errorf("delivered before ack in %d/%d trials, want ≥ %d", delivered, trials, trials*8/10)
	}
}

func TestRecvDeduplicated(t *testing.T) {
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 2, 2, 0.25)
	e, _ := buildLB(t, d, p, nil, func(procs []Service) sim.Environment {
		return NewSingleShotEnv(procs, []Send{{Node: 0, Round: 1, Payload: "x"}})
	}, 3)
	e.Run(p.TAckBound())
	seen := map[sim.MsgID]map[int]int{}
	for _, rv := range e.Trace().ByKind(sim.EvRecv) {
		if seen[rv.MsgID] == nil {
			seen[rv.MsgID] = map[int]int{}
		}
		seen[rv.MsgID][rv.Node]++
		if seen[rv.MsgID][rv.Node] > 1 {
			t.Fatalf("node %d emitted multiple recv outputs for %v", rv.Node, rv.MsgID)
		}
	}
}

func TestValidityOnTrace(t *testing.T) {
	// Every recv(m)_u must happen while some G′ neighbor is actively
	// broadcasting m (checked in depth by lbspec; spot-check here).
	rng := xrand.New(4)
	d, err := dualgraph.SingleHopCluster(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, d.Delta(), d.DeltaPrime(), 0.25)
	e, _ := buildLB(t, d, p, sched.Never{}, func(procs []Service) sim.Environment {
		return NewSaturatingEnv(procs, []int{0, 1})
	}, 5)
	e.Run(3 * p.PhaseLen())

	active := map[sim.MsgID][2]int{} // msg → [bcast round, ack round]
	for ev := range e.Trace().Events() {
		switch ev.Kind {
		case sim.EvBcast:
			active[ev.MsgID] = [2]int{ev.Round, 1 << 30}
		case sim.EvAck:
			span := active[ev.MsgID]
			span[1] = ev.Round
			active[ev.MsgID] = span
		}
	}
	for _, rv := range e.Trace().ByKind(sim.EvRecv) {
		span, ok := active[rv.MsgID]
		if !ok {
			t.Fatalf("recv of unknown message %v", rv.MsgID)
		}
		if rv.Round < span[0] || rv.Round > span[1] {
			t.Errorf("recv of %v at round %d outside active span %v", rv.MsgID, rv.Round, span)
		}
		if rv.From != rv.MsgID.Src() {
			t.Errorf("recv of %v from %d, want source %d", rv.MsgID, rv.From, rv.MsgID.Src())
		}
	}
}

func TestOwnerGroupLockstep(t *testing.T) {
	// Two sending nodes committed to the same seed must make identical
	// participation decisions and consume identical bit counts in every
	// body round.
	p := testParams(t, 8, 8, 0.1)
	shared := xrand.New(9).DrawSeed(p.Kappa)

	mk := func(id int, rngSeed uint64) *LBAlg {
		l := NewLBAlg(p)
		l.Init(&sim.NodeEnv{ID: id, Delta: 8, DeltaPrime: 8, R: 1, Rng: xrand.New(rngSeed), Rec: nopRec{}})
		l.pending = &Message{ID: sim.NewMsgID(id, 1)}
		l.state = StateSending
		commitDirect(l, shared)
		return l
	}
	a, b := mk(1, 100), mk(2, 200)
	// Identical seed content must decode to an identical coin scratch and
	// consume identical bit counts — the structural form of the per-round
	// cursor lockstep the incremental implementation maintained.
	if len(a.coins.b) != p.Tprog || len(b.coins.b) != p.Tprog {
		t.Fatalf("decoded %d and %d body rounds, want Tprog=%d", len(a.coins.b), len(b.coins.b), p.Tprog)
	}
	participants := 0
	for j := range a.coins.b {
		if a.coins.b[j] != b.coins.b[j] {
			t.Fatalf("round %d: group members decoded b=%d vs b=%d", j, a.coins.b[j], b.coins.b[j])
		}
		if a.coins.b[j] != 0 {
			participants++
		}
	}
	if a.cur != b.cur {
		t.Fatalf("group members consumed different totals: %d vs %d bits", a.cur, b.cur)
	}
	consumed := int(a.cur)
	if want := p.Tprog*p.K1 + participants*p.K2; consumed != want {
		t.Fatalf("phase decode consumed %d bits, want Tprog·K1 + participants·K2 = %d", consumed, want)
	}
	for round := 0; round < p.Tprog; round++ {
		a.bodyRound(round)
		b.bodyRound(round)
	}
	pa, _ := a.BodyStats()
	pb, _ := b.BodyStats()
	if pa != pb {
		t.Errorf("group members participated %d vs %d times", pa, pb)
	}
	if pa != participants {
		t.Errorf("participations %d disagree with decoded participant rounds %d", pa, participants)
	}
	if pa == 0 {
		t.Error("group never participated across a full phase body (probability ≈ (1−2^{-K1})^Tprog, should be negligible)")
	}
}

type nopRec struct{}

func (nopRec) Record(sim.Event) {}

func TestDifferentGroupsDiverge(t *testing.T) {
	// Nodes holding different seeds should not be in lockstep.
	p := testParams(t, 8, 8, 0.1)
	r := xrand.New(10)
	mk := func(id int, seed xrand.Seed) *LBAlg {
		l := NewLBAlg(p)
		l.Init(&sim.NodeEnv{ID: id, Delta: 8, DeltaPrime: 8, R: 1, Rng: xrand.New(uint64(id)), Rec: nopRec{}})
		l.pending = &Message{ID: sim.NewMsgID(id, 1)}
		l.state = StateSending
		commitDirect(l, seed)
		return l
	}
	a := mk(1, r.DrawSeed(p.Kappa))
	b := mk(2, r.DrawSeed(p.Kappa))
	same := true
	for round := 0; round < p.Tprog; round++ {
		if a.coins.b[round] != b.coins.b[round] {
			same = false
			break
		}
	}
	if same {
		t.Error("independent seeds produced identical participation patterns over a full phase (astronomically unlikely)")
	}
}

func TestDeterministicExecution(t *testing.T) {
	rng := xrand.New(11)
	d, err := dualgraph.SingleHopCluster(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, d.Delta(), d.DeltaPrime(), 0.25)
	run := func() (int, int) {
		e, _ := buildLB(t, d, p, sched.Random{P: 0.5, Seed: 2}, func(procs []Service) sim.Environment {
			return NewSaturatingEnv(procs, []int{0})
		}, 42)
		e.Run(2 * p.PhaseLen())
		return e.Trace().Transmissions, e.Trace().Len()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Errorf("executions diverged: (%d,%d) vs (%d,%d)", t1, e1, t2, e2)
	}
}

func TestProgressOnCluster(t *testing.T) {
	// A receiver whose reliable neighbor is saturated should receive
	// something in nearly every phase.
	rng := xrand.New(12)
	d, err := dualgraph.SingleHopCluster(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, d.Delta(), d.DeltaPrime(), 0.2)
	e, _ := buildLB(t, d, p, sched.Never{}, func(procs []Service) sim.Environment {
		return NewSaturatingEnv(procs, []int{0, 1, 2})
	}, 13)
	const phases = 6
	e.Run(phases * p.PhaseLen())

	// Count phases in which node 7 (a pure receiver) heard at least one
	// message (channel-level receptions, matching the progress property).
	got := map[int]bool{}
	for _, rv := range e.Trace().ByKind(sim.EvHear) {
		if rv.Node == 7 {
			phase, _ := p.PhaseOf(rv.Round)
			got[phase] = true
		}
	}
	if len(got) < phases-1 {
		t.Errorf("receiver made progress in %d/%d phases", len(got), phases)
	}
}

func TestSaturatingEnvKeepsSenderActive(t *testing.T) {
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 2, 2, 0.25)
	var env *SaturatingEnv
	e, procs := buildLB(t, d, p, nil, func(procs []Service) sim.Environment {
		env = NewSaturatingEnv(procs, []int{0})
		return env
	}, 14)
	e.Run(3*p.TAckBound() + 2)
	if env.Acks(0) < 2 {
		t.Errorf("saturated sender acked only %d times", env.Acks(0))
	}
	// The sender must be active again right after each ack.
	if !procs[0].Active() {
		t.Error("saturated sender idle at measurement point")
	}
}

func TestSingleShotEnvDefersWhileBusy(t *testing.T) {
	d, err := dualgraph.Abstract(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 1, 1, 0.25)
	e, _ := buildLB(t, d, p, nil, func(procs []Service) sim.Environment {
		return NewSingleShotEnv(procs, []Send{
			{Node: 0, Round: 1, Payload: "a"},
			{Node: 0, Round: 2, Payload: "b"}, // arrives while "a" is active
		})
	}, 15)
	e.Run(3 * p.TAckBound())
	tr := e.Trace()
	if got := len(tr.ByKind(sim.EvBcast)); got != 2 {
		t.Fatalf("%d bcasts issued, want 2 (deferred, not dropped)", got)
	}
	acks := tr.ByKind(sim.EvAck)
	if len(acks) != 2 {
		t.Fatalf("%d acks", len(acks))
	}
	// Second bcast must postdate first ack (environment well-formedness).
	bcasts := tr.ByKind(sim.EvBcast)
	if bcasts[1].Round <= acks[0].Round {
		t.Errorf("second bcast at %d before first ack at %d", bcasts[1].Round, acks[0].Round)
	}
}

func TestAblationSeedEveryK(t *testing.T) {
	// k = 2: seeds refresh every other phase; the service must still
	// deliver and acknowledge.
	rng := xrand.New(16)
	d, err := dualgraph.SingleHopCluster(6, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.25, WithSeedEveryKPhases(2))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := buildLB(t, d, p, sched.Never{}, func(procs []Service) sim.Environment {
		return NewSaturatingEnv(procs, []int{0})
	}, 17)
	e.Run(5 * p.PhaseLen())
	tr := e.Trace()
	if len(tr.ByKind(sim.EvRecv)) == 0 {
		t.Error("no deliveries under k=2 seed refresh")
	}
	// Receivers must still see deliveries during reclaimed preamble slots
	// of non-refresh phases at least occasionally; just assert the system
	// transmits during those phases.
	if tr.Transmissions == 0 {
		t.Error("no transmissions at all")
	}
}

func TestBodyStatsAccounting(t *testing.T) {
	p := testParams(t, 4, 4, 0.25)
	l := NewLBAlg(p)
	l.Init(&sim.NodeEnv{ID: 0, Delta: 4, DeltaPrime: 4, R: 1, Rng: xrand.New(1), Rec: nopRec{}})
	part, tx := l.BodyStats()
	if part != 0 || tx != 0 {
		t.Error("fresh node has nonzero stats")
	}
	// Not sending: body rounds must not count participations.
	commitDirect(l, xrand.New(2).DrawSeed(p.Kappa))
	for i := 0; i < 50; i++ {
		if _, sent := l.bodyRound(i % p.Tprog); sent {
			t.Fatal("receiver transmitted")
		}
	}
	part, _ = l.BodyStats()
	if part != 0 {
		t.Error("receiver accumulated participations")
	}
}
