package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

func benchRng() *xrand.Source { return xrand.New(1) }

// scriptProc transmits the rounds listed in txRounds and records everything
// it receives.
type scriptProc struct {
	env      *NodeEnv
	txRounds map[int]bool
	payload  any

	got map[int]reception
}

type reception struct {
	from    int
	payload any
	ok      bool
}

func newScriptProc(payload any, rounds ...int) *scriptProc {
	tx := make(map[int]bool, len(rounds))
	for _, r := range rounds {
		tx[r] = true
	}
	return &scriptProc{txRounds: tx, payload: payload, got: make(map[int]reception)}
}

func (p *scriptProc) Init(env *NodeEnv) { p.env = env }

func (p *scriptProc) Transmit(t int) (any, bool) {
	if p.txRounds[t] {
		return p.payload, true
	}
	return nil, false
}

func (p *scriptProc) Receive(t, from int, payload any, ok bool) {
	p.got[t] = reception{from: from, payload: payload, ok: ok}
}

// coinProc transmits with probability p every round using its node RNG, and
// counts receptions. Used for driver-parity and stress tests.
type coinProc struct {
	env   *NodeEnv
	p     float64
	seen  []int
	heard int
}

func (c *coinProc) Init(env *NodeEnv) { c.env = env }

func (c *coinProc) Transmit(t int) (any, bool) {
	if c.env.Rng.Coin(c.p) {
		return c.env.ID, true
	}
	return nil, false
}

func (c *coinProc) Receive(t, from int, payload any, ok bool) {
	if ok {
		c.heard++
		c.seen = append(c.seen, from)
	}
}

// newTestEngine constructs an engine and registers Close on test cleanup,
// so the worker-pool driver can never leak pool goroutines into later tests
// or benchmarks — even when an assertion fails before the explicit Close.
// Close is idempotent and a no-op for the sequential driver.
func newTestEngine(tb testing.TB, cfg Config) *Engine {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	return e
}

func must(t testing.TB) func(*dualgraph.Dual, error) *dualgraph.Dual {
	return func(d *dualgraph.Dual, err error) *dualgraph.Dual {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// lineDual builds 0-1-2 reliable path plus unreliable edge {0,2}.
func lineDual(t testing.TB) *dualgraph.Dual {
	return must(t)(dualgraph.Abstract(3,
		[]dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		[]dualgraph.Edge{{U: 0, V: 2}},
	))
}

func TestNewValidation(t *testing.T) {
	d := lineDual(t)
	if _, err := New(Config{Dual: nil}); err == nil {
		t.Error("want error for nil dual")
	}
	if _, err := New(Config{Dual: d, Procs: []Process{newScriptProc(nil)}}); err == nil {
		t.Error("want error for process count mismatch")
	}
	for _, driver := range []Driver{3, 9, -1} {
		procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
		if e, err := New(Config{Dual: d, Procs: procs, Driver: driver}); err == nil {
			e.Close()
			t.Errorf("want error for unknown driver %d", driver)
		}
	}
	// A scheduler must implement the batch and the sparse methods too.
	type perEdgeOnly struct{ LinkScheduler }
	type batchOnly struct{ BatchLinkScheduler }
	type sparseOnly struct{ SparseLinkScheduler }
	for _, s := range []LinkScheduler{perEdgeOnly{sched.Always{}}, batchOnly{sched.Always{}}, sparseOnly{sched.Always{}}} {
		procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
		if e, err := New(Config{Dual: d, Procs: procs, Sched: s}); err == nil {
			e.Close()
			t.Errorf("want error for incomplete scheduler %T", s)
		}
	}
}

func TestDeliveryBasic(t *testing.T) {
	d := lineDual(t)
	procs := []Process{
		newScriptProc("hello", 1),
		newScriptProc(nil),
		newScriptProc(nil),
	}
	e, err := New(Config{Dual: d, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)

	// Round 1: node 0 transmits; node 1 (reliable neighbor) hears it;
	// node 2 does not (unreliable edge excluded by nil scheduler).
	p1 := procs[1].(*scriptProc)
	if got := p1.got[1]; !got.ok || got.from != 0 || got.payload != "hello" {
		t.Errorf("node 1 round 1 reception = %+v", got)
	}
	p2 := procs[2].(*scriptProc)
	if got := p2.got[1]; got.ok {
		t.Errorf("node 2 heard through an excluded unreliable edge: %+v", got)
	}
	// The transmitter itself receives ⊥.
	p0 := procs[0].(*scriptProc)
	if got := p0.got[1]; got.ok || got.from != NoTransmitter {
		t.Errorf("transmitter reception = %+v, want ⊥", got)
	}
	// Round 2: silence everywhere.
	if got := p1.got[2]; got.ok {
		t.Errorf("node 1 round 2 reception = %+v, want ⊥", got)
	}
	if e.Trace().Transmissions != 1 || e.Trace().Deliveries != 1 {
		t.Errorf("trace stats = %+v", e.Trace())
	}
}

func TestUnreliableEdgeScheduled(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc("x", 1), newScriptProc(nil), newScriptProc(nil)}
	e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Always{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	// With the unreliable edge {0,2} included, node 2 hears node 0.
	p2 := procs[2].(*scriptProc)
	if got := p2.got[1]; !got.ok || got.from != 0 {
		t.Errorf("node 2 reception = %+v, want from 0", got)
	}
}

func TestCollision(t *testing.T) {
	// Nodes 0 and 2 both transmit in round 1; node 1 neighbors both in G,
	// so it hears ⊥ and a collision is counted.
	d := lineDual(t)
	procs := []Process{newScriptProc("a", 1), newScriptProc(nil), newScriptProc("b", 1)}
	e, err := New(Config{Dual: d, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	p1 := procs[1].(*scriptProc)
	if got := p1.got[1]; got.ok {
		t.Errorf("node 1 heard %+v despite collision", got)
	}
	if e.Trace().Collisions != 1 {
		t.Errorf("Collisions = %d, want 1", e.Trace().Collisions)
	}
}

func TestCollisionViaScheduledEdge(t *testing.T) {
	// Node 1 transmits (reliable neighbor of 0); node 2 transmits and the
	// adversary includes unreliable edge {0,2}: node 0 must hear ⊥.
	d := must(t)(dualgraph.Abstract(3,
		[]dualgraph.Edge{{U: 0, V: 1}},
		[]dualgraph.Edge{{U: 0, V: 2}},
	))
	procs := []Process{newScriptProc(nil), newScriptProc("r", 1), newScriptProc("d", 1)}

	t.Run("edge excluded delivers", func(t *testing.T) {
		ps := []Process{newScriptProc(nil), newScriptProc("r", 1), newScriptProc("d", 1)}
		e, err := New(Config{Dual: d, Procs: ps})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(1)
		if got := ps[0].(*scriptProc).got[1]; !got.ok || got.from != 1 {
			t.Errorf("node 0 reception = %+v, want from 1", got)
		}
	})
	t.Run("edge included collides", func(t *testing.T) {
		e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Always{}})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(1)
		if got := procs[0].(*scriptProc).got[1]; got.ok {
			t.Errorf("node 0 heard %+v despite manufactured collision", got)
		}
	})
}

func TestNodeEnvContents(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
	if _, err := New(Config{Dual: d, Procs: procs, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for u, p := range procs {
		env := p.(*scriptProc).env
		if env.ID != u {
			t.Errorf("node %d has ID %d", u, env.ID)
		}
		// Line 0-1-2: Δ = 3 (middle node), Δ′ = 3 as well (0 has G'-nbrs 1,2).
		if env.Delta != 3 || env.DeltaPrime != 3 {
			t.Errorf("node %d sees Δ=%d Δ'=%d, want 3, 3", u, env.Delta, env.DeltaPrime)
		}
		if env.Rng == nil || env.Rec == nil {
			t.Errorf("node %d env missing rng/recorder", u)
		}
	}
}

func TestEnvironmentHooks(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
	var calls []string
	env := &hookEnv{
		before: func(t int) { calls = append(calls, fmt.Sprintf("b%d", t)) },
		after:  func(t int) { calls = append(calls, fmt.Sprintf("a%d", t)) },
	}
	e, err := New(Config{Dual: d, Procs: procs, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	want := []string{"b1", "a1", "b2", "a2", "b3", "a3"}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("environment hooks = %v, want %v", calls, want)
	}
}

type hookEnv struct {
	before, after func(int)
}

func (h *hookEnv) BeforeRound(t int) { h.before(t) }
func (h *hookEnv) AfterRound(t int)  { h.after(t) }

func TestAdaptiveSchedulerIntegration(t *testing.T) {
	// Reliable sender transmits every round; decoys chatter constantly.
	// Under the adaptive adversary the target must never receive; under an
	// oblivious scheduler it receives whenever no decoy edge is included.
	d := must(t)(dualgraph.StarWithDecoys(4))
	mk := func() []Process {
		ps := make([]Process, d.N())
		ps[0] = newScriptProc(nil)
		rounds := make([]int, 50)
		for i := range rounds {
			rounds[i] = i + 1
		}
		for u := 1; u < d.N(); u++ {
			ps[u] = newScriptProc(u, rounds...)
		}
		return ps
	}

	adaptive, err := sched.NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	psA := mk()
	eA, err := New(Config{Dual: d, Procs: psA, Sched: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	eA.Run(50)
	for r, got := range psA[0].(*scriptProc).got {
		if got.ok {
			t.Fatalf("round %d: adaptive adversary let a delivery through: %+v", r, got)
		}
	}

	psO := mk()
	eO, err := New(Config{Dual: d, Procs: psO, Sched: sched.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	eO.Run(50)
	delivered := 0
	for _, got := range psO[0].(*scriptProc).got {
		if got.ok {
			delivered++
		}
	}
	if delivered != 50 {
		t.Fatalf("oblivious Never scheduler delivered %d/50", delivered)
	}
}

func TestDriverParity(t *testing.T) {
	// The drivers must produce identical executions for identical
	// configurations: same receptions at every node, same trace stats.
	d := must(t)(dualgraph.Abstract(8,
		[]dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}},
		[]dualgraph.Edge{{U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 4}, {U: 3, V: 5}, {U: 4, V: 6}},
	))
	run := func(driver Driver) ([]int, Trace) {
		procs := make([]Process, d.N())
		for u := range procs {
			procs[u] = &coinProc{p: 0.3}
		}
		e := newTestEngine(t, Config{
			Dual:   d,
			Procs:  procs,
			Sched:  sched.Random{P: 0.5, Seed: 11},
			Seed:   77,
			Driver: driver,
		})
		e.Run(200)
		e.Close()
		heard := make([]int, d.N())
		for u := range procs {
			heard[u] = procs[u].(*coinProc).heard
		}
		return heard, *e.Trace()
	}

	heardSeq, traceSeq := run(DriverSequential)
	heardPool, tracePool := run(DriverWorkerPool)

	if !reflect.DeepEqual(heardSeq, heardPool) {
		t.Errorf("worker pool diverged: %v vs %v", heardPool, heardSeq)
	}
	if tracePool.Transmissions != traceSeq.Transmissions || tracePool.Deliveries != traceSeq.Deliveries ||
		tracePool.Collisions != traceSeq.Collisions {
		t.Errorf("pool trace stats diverged: %+v vs %+v", tracePool, traceSeq)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	d := lineDual(t)
	run := func() int {
		procs := []Process{&coinProc{p: 0.5}, &coinProc{p: 0.5}, &coinProc{p: 0.5}}
		e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Random{P: 0.3, Seed: 1}, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(500)
		return e.Trace().Deliveries
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configurations diverged: %d vs %d deliveries", a, b)
	}
}

func TestSeedChangesExecution(t *testing.T) {
	d := lineDual(t)
	run := func(seed uint64) int {
		procs := []Process{&coinProc{p: 0.5}, &coinProc{p: 0.5}, &coinProc{p: 0.5}}
		e, err := New(Config{Dual: d, Procs: procs, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(500)
		return e.Trace().Transmissions
	}
	if run(1) == run(2) {
		t.Skip("different seeds coincidentally matched transmissions; rerun with more rounds if persistent")
	}
}

func TestRecorderEventsOrdered(t *testing.T) {
	// Events recorded by processes must appear in deterministic node order
	// per round regardless of driver.
	d := must(t)(dualgraph.Abstract(4, []dualgraph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, nil))
	for _, driver := range []Driver{DriverSequential, DriverWorkerPool} {
		procs := make([]Process, 4)
		for u := range procs {
			procs[u] = &recordingProc{}
		}
		e := newTestEngine(t, Config{Dual: d, Procs: procs, Driver: driver})
		e.Run(3)
		e.Close()
		evs := slices.Collect(e.Trace().Events())
		if len(evs) != 12 {
			t.Fatalf("driver %d: %d events, want 12", driver, len(evs))
		}
		for i, ev := range evs {
			wantRound, wantNode := i/4+1, i%4
			if ev.Round != wantRound || ev.Node != wantNode {
				t.Fatalf("driver %d: event %d = %+v, want round %d node %d",
					driver, i, ev, wantRound, wantNode)
			}
		}
	}
}

type recordingProc struct{ env *NodeEnv }

func (p *recordingProc) Init(env *NodeEnv) { p.env = env }

func (p *recordingProc) Transmit(t int) (any, bool) {
	p.env.Rec.Record(Event{Round: t, Node: p.env.ID, Kind: EvRecv})
	return nil, false
}

func (p *recordingProc) Receive(int, int, any, bool) {}

func TestEmptyNetwork(t *testing.T) {
	d := must(t)(dualgraph.Abstract(0, nil, nil))
	e, err := New(Config{Dual: d, Procs: nil})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.Round() != 10 {
		t.Errorf("Round = %d", e.Round())
	}
}

func TestSingletonNetwork(t *testing.T) {
	d := must(t)(dualgraph.Abstract(1, nil, nil))
	procs := []Process{newScriptProc("solo", 1, 2)}
	e, err := New(Config{Dual: d, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if e.Trace().Deliveries != 0 {
		t.Error("singleton delivered to itself")
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
	e := newTestEngine(t, Config{Dual: d, Procs: procs, Driver: DriverWorkerPool, Workers: 2})
	e.Run(2)
	e.Close()
	e.Close()
}

func TestPerRoundStats(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc("a", 1, 3), newScriptProc(nil), newScriptProc("b", 3)}
	tr := &Trace{SampleRounds: true}
	e, err := New(Config{Dual: d, Procs: procs, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	if len(tr.PerRound) != 3 {
		t.Fatalf("PerRound has %d entries, want 3", len(tr.PerRound))
	}
	// Round 1: node 0 transmits, node 1 hears it. Round 2: silence.
	// Round 3: nodes 0 and 2 transmit → collision at node 1.
	if rs := tr.PerRound[0]; rs.Round != 1 || rs.Transmissions != 1 || rs.Deliveries != 1 || rs.Collisions != 0 {
		t.Errorf("round 1 stats = %+v", rs)
	}
	if rs := tr.PerRound[1]; rs.Transmissions != 0 || rs.Deliveries != 0 {
		t.Errorf("round 2 stats = %+v", rs)
	}
	if rs := tr.PerRound[2]; rs.Transmissions != 2 || rs.Deliveries != 0 || rs.Collisions != 1 {
		t.Errorf("round 3 stats = %+v", rs)
	}
	// Per-round entries must sum to the aggregate counters.
	var tx, del, col int
	for _, rs := range tr.PerRound {
		tx += rs.Transmissions
		del += rs.Deliveries
		col += rs.Collisions
	}
	if tx != tr.Transmissions || del != tr.Deliveries || col != tr.Collisions {
		t.Errorf("per-round sums (%d,%d,%d) ≠ aggregates (%d,%d,%d)",
			tx, del, col, tr.Transmissions, tr.Deliveries, tr.Collisions)
	}
}

func TestPerRoundDisabledByDefault(t *testing.T) {
	d := lineDual(t)
	procs := []Process{newScriptProc(nil), newScriptProc(nil), newScriptProc(nil)}
	e, err := New(Config{Dual: d, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if e.Trace().PerRound != nil {
		t.Error("PerRound collected without SampleRounds")
	}
}

func TestMsgID(t *testing.T) {
	id := NewMsgID(17, 42)
	if id.Src() != 17 || id.Seq() != 42 {
		t.Errorf("MsgID round trip: src=%d seq=%d", id.Src(), id.Seq())
	}
	if NewMsgID(1, 1) == NewMsgID(1, 2) || NewMsgID(1, 1) == NewMsgID(2, 1) {
		t.Error("MsgID collisions")
	}
	if id.String() == "" {
		t.Error("empty MsgID string")
	}
}

func TestTraceFilters(t *testing.T) {
	tr := &Trace{}
	tr.Record(Event{Round: 1, Node: 0, Kind: EvBcast})
	tr.Record(Event{Round: 2, Node: 1, Kind: EvRecv})
	tr.Record(Event{Round: 3, Node: 0, Kind: EvAck})
	if got := tr.ByKind(EvBcast); len(got) != 1 || got[0].Round != 1 {
		t.Errorf("ByKind(EvBcast) = %v", got)
	}
	for _, k := range []EventKind{EvBcast, EvAck, EvRecv, EvDecide, EventKind(99)} {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", k)
		}
	}
}

func BenchmarkEngineRound(b *testing.B) {
	for _, bc := range []struct {
		name   string
		driver Driver
	}{
		{"sequential", DriverSequential},
		{"workerpool", DriverWorkerPool},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := dualgraph.RandomGeometric(500, 10, 10, 2, dualgraph.GreyUnreliable, benchRng())
			if err != nil {
				b.Fatal(err)
			}
			procs := make([]Process, d.N())
			for u := range procs {
				procs[u] = &coinProc{p: 0.2}
			}
			e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Random{P: 0.5, Seed: 3}, Driver: bc.driver})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// quietCoinProc transmits by private coin with a pre-boxed payload and
// records nothing: the pure engine round path.
type quietCoinProc struct {
	env     *NodeEnv
	p       float64
	payload any
}

func (c *quietCoinProc) Init(env *NodeEnv) { c.env = env; c.payload = env.ID }

func (c *quietCoinProc) Transmit(t int) (any, bool) {
	return c.payload, c.env.Rng.Coin(c.p)
}

func (c *quietCoinProc) Receive(int, int, any, bool) {}

// TestStepSteadyStateZeroAlloc pins the scatter kernel's allocation
// contract: once the engine is warm, a round allocates nothing — no payload
// boxing, no schedule scratch, no per-listener scans buffers.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.6, dualgraph.GreyUnreliable, benchRng())
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, d.N())
	for u := range procs {
		procs[u] = &quietCoinProc{p: 0.25}
	}
	e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Random{P: 0.5, Seed: 8}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10) // warm up scratch
	if avg := testing.AllocsPerRun(200, e.Step); avg != 0 {
		t.Errorf("Step allocates %v objects per round in steady state, want 0", avg)
	}
}
