package sim

import (
	"slices"
	"strings"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// probeProc logs every Transmit/Receive invocation round, transmits every
// round when beacon is set, and records heard transmissions into the trace.
type probeProc struct {
	env      *NodeEnv
	beacon   bool
	inits    int
	txRounds []int
	rxRounds []int
}

func (p *probeProc) Init(env *NodeEnv) { p.env = env; p.inits++ }

func (p *probeProc) Transmit(t int) (any, bool) {
	p.txRounds = append(p.txRounds, t)
	if p.beacon {
		return p.env.ID, true
	}
	return nil, false
}

func (p *probeProc) Receive(t, from int, payload any, ok bool) {
	p.rxRounds = append(p.rxRounds, t)
	if ok {
		p.env.Rec.Record(Event{Round: t, Node: p.env.ID, Kind: EvHear, From: from})
	}
}

// TestCrashedNodeSilent is the tentpole's silence contract: while a node is
// down its process is never invoked (no Transmit, no Receive), nothing it
// would have sent reaches anyone, and it contributes no trace events.
func TestCrashedNodeSilent(t *testing.T) {
	d := lineDual(t)
	beacon := &probeProc{beacon: true}
	listeners := []*probeProc{{}, {}}
	procs := []Process{beacon, listeners[0], listeners[1]}

	const downFrom, downTo = 4, 7
	var eng *Engine
	env := &hookEnv{
		before: func(t int) {
			if t == downFrom {
				eng.SetDown(0, true)
			}
			if t == downTo+1 {
				eng.SetDown(0, false)
			}
		},
		after: func(int) {},
	}
	eng = newTestEngine(t, Config{Dual: d, Procs: procs, Env: env, Seed: 1})
	eng.Run(10)

	inWindow := func(rounds []int) []int {
		var in []int
		for _, r := range rounds {
			if r >= downFrom && r <= downTo {
				in = append(in, r)
			}
		}
		return in
	}
	if got := inWindow(beacon.txRounds); len(got) != 0 {
		t.Fatalf("down node's Transmit ran in rounds %v", got)
	}
	if got := inWindow(beacon.rxRounds); len(got) != 0 {
		t.Fatalf("down node's Receive ran in rounds %v", got)
	}
	if len(beacon.txRounds) != 10-(downTo-downFrom+1) {
		t.Fatalf("beacon Transmit ran %d times, want %d", len(beacon.txRounds), 10-(downTo-downFrom+1))
	}
	for _, ev := range eng.Trace().ByKind(EvHear) {
		if ev.Round >= downFrom && ev.Round <= downTo && ev.From == 0 {
			t.Fatalf("listener heard the crashed beacon in round %d", ev.Round)
		}
		if ev.Round >= downFrom && ev.Round <= downTo && ev.Node == 0 {
			t.Fatalf("crashed beacon recorded an event in round %d", ev.Round)
		}
	}
	// Outside the window node 1 hears the beacon (node 2 only when edge
	// {0,2} is scheduled; with no scheduler it never is).
	heard1 := 0
	for _, ev := range eng.Trace().ByKind(EvHear) {
		if ev.Node == 1 && ev.From == 0 {
			heard1++
		}
	}
	if heard1 != 10-(downTo-downFrom+1) {
		t.Fatalf("listener heard beacon %d times, want %d", heard1, 10-(downTo-downFrom+1))
	}
}

// TestDownStateTraceNeutral pins that merely allocating the down state (a
// crash immediately reverted before any round) leaves the execution
// byte-identical to one that never touched the lifecycle API — the
// empty-fault-schedule fingerprint guarantee at engine level.
func TestDownStateTraceNeutral(t *testing.T) {
	d := must(t)(dualgraph.RandomGeometric(60, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(2)))
	run := func(touchDown bool) *Trace {
		procs := make([]Process, d.N())
		for u := range procs {
			procs[u] = &chattyProc{p: 0.4}
		}
		eng := newTestEngine(t, Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.4, 21), Seed: 5})
		if touchDown {
			eng.SetDown(3, true)
			eng.SetDown(3, false)
		}
		eng.Run(50)
		return eng.Trace()
	}
	ref := run(false)
	got := run(true)
	if ok, diff := tracesEqual(got, ref); !ok {
		t.Fatalf("allocated-but-idle down state changed the trace: %s", diff)
	}
}

// TestReplaceProcRestart verifies a restarted node comes back with a fresh
// process, a fresh (incarnation-salted) randomness stream and the original
// environment parameters.
func TestReplaceProcRestart(t *testing.T) {
	d := lineDual(t)
	first := &probeProc{beacon: true}
	procs := []Process{first, &probeProc{}, &probeProc{}}
	eng := newTestEngine(t, Config{Dual: d, Procs: procs, Seed: 9})
	eng.Run(3)

	second := &probeProc{beacon: true}
	eng.ReplaceProc(0, second)
	eng.Run(3)

	if second.inits != 1 {
		t.Fatalf("replacement process initialised %d times, want 1", second.inits)
	}
	if len(first.txRounds) != 3 || len(second.txRounds) != 3 {
		t.Fatalf("transmit split = %d/%d rounds, want 3/3", len(first.txRounds), len(second.txRounds))
	}
	if second.env.Delta != first.env.Delta || second.env.DeltaPrime != first.env.DeltaPrime ||
		second.env.R != first.env.R || second.env.ID != 0 {
		t.Fatalf("replacement environment diverged: %+v vs %+v", second.env, first.env)
	}
	// The restarted stream must not replay the original's coins.
	orig := xrand.NodeSource(9, 0)
	if second.env.Rng.Uint64() == orig.Uint64() {
		t.Fatalf("restarted node replays its predecessor's randomness stream")
	}
}

// stubBank is a ProcessBank that never transmits and ignores receptions.
type stubBank struct{}

func (stubBank) TransmitRange(int, int, int, *RoundView) {}
func (stubBank) ReceiveRange(int, int, int, *RoundView)  {}

// TestReplaceProcRefusesBank pins that an engine stepping a Config.Bank
// refuses to swap one node's process: the bank's state would not follow.
func TestReplaceProcRefusesBank(t *testing.T) {
	d := lineDual(t)
	procs := []Process{&probeProc{}, &probeProc{}, &probeProc{}}
	eng := newTestEngine(t, Config{Dual: d, Procs: procs, Bank: stubBank{}, Seed: 9})
	eng.Run(1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "not supported with Config.Bank") {
			t.Fatalf("ReplaceProc on a Config.Bank engine recovered %q, want the Config.Bank refusal", msg)
		}
	}()
	eng.ReplaceProc(0, &probeProc{})
}

// TestReplaceProcUnderWorkerPool pins ReplaceProc on per-node processes
// stepped by a three-worker pool, one node per range: the replacement is
// initialised at once, transmits in the next round, and is heard.
func TestReplaceProcUnderWorkerPool(t *testing.T) {
	d := lineDual(t)
	procs := []Process{&probeProc{}, &probeProc{}, &probeProc{}}
	eng := newTestEngine(t, Config{Dual: d, Procs: procs, Seed: 9,
		Driver: DriverWorkerPool, Workers: 3})
	eng.Run(2)

	fresh := &probeProc{beacon: true}
	eng.ReplaceProc(0, fresh)
	if fresh.inits != 1 || fresh.env.ID != 0 {
		t.Fatalf("replacement initialised %d times as node %d, want once as node 0", fresh.inits, fresh.env.ID)
	}
	eng.Step()
	if !slices.Equal(fresh.txRounds, []int{3}) {
		t.Fatalf("replacement Transmit ran in rounds %v, want [3]", fresh.txRounds)
	}
	var heard []int
	for _, ev := range eng.Trace().ByKind(EvHear) {
		if ev.Node == 1 && ev.From == 0 {
			heard = append(heard, ev.Round)
		}
	}
	if !slices.Equal(heard, []int{3}) {
		t.Fatalf("node 1 heard node 0 in rounds %v, want [3]", heard)
	}
}

// TestRefreshTopologyAfterPatch drives a leave/rejoin through PatchNode +
// RefreshTopology on a live engine: after the beacon leaves, nobody hears
// it; after it rejoins at the same spot, deliveries resume.
func TestRefreshTopologyAfterPatch(t *testing.T) {
	rng := xrand.New(3)
	d := must(t)(dualgraph.Line(5, 0.9, 1.5, rng))
	idx := geo.BuildGridIndex(d.Emb)
	beacon := &probeProc{beacon: true}
	procs := make([]Process, 5)
	procs[0] = beacon
	for u := 1; u < 5; u++ {
		procs[u] = &probeProc{}
	}
	eng := newTestEngine(t, Config{Dual: d, Procs: procs, Seed: 4})
	eng.Run(3)

	pos := d.Emb[0]
	if err := d.PatchNode(0, nil, idx, dualgraph.GreyUnreliable); err != nil {
		t.Fatal(err)
	}
	eng.RefreshTopology()
	eng.SetDown(0, true)
	eng.Run(3) // rounds 4-6: beacon gone

	if err := d.PatchNode(0, &pos, idx, dualgraph.GreyUnreliable); err != nil {
		t.Fatal(err)
	}
	eng.RefreshTopology()
	eng.SetDown(0, false)
	eng.ReplaceProc(0, &probeProc{beacon: true})
	eng.Run(3) // rounds 7-9: beacon back

	var heardRounds []int
	for _, ev := range eng.Trace().ByKind(EvHear) {
		if ev.Node == 1 && ev.From == 0 {
			heardRounds = append(heardRounds, ev.Round)
		}
	}
	want := []int{1, 2, 3, 7, 8, 9}
	if !slices.Equal(heardRounds, want) {
		t.Fatalf("node 1 heard the beacon in rounds %v, want %v", heardRounds, want)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
