package sim

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
)

// stubModel is a scripted reception model: out[u] = script[t][u], with
// missing rounds meaning all-silence.
type stubModel struct {
	script map[int][]int32
}

func (s *stubModel) Resolve(t int, txs []int32, out []int32) {
	row, ok := s.script[t]
	for u := range out {
		if ok {
			out[u] = row[u]
		} else {
			out[u] = NoTransmitter
		}
	}
}

// echoProc transmits its id every round and records what it receives.
type echoProc struct {
	env  *NodeEnv
	tx   bool
	got  []int // per round: from (or NoTransmitter)
	okay []bool
}

func (p *echoProc) Init(env *NodeEnv) { p.env = env }
func (p *echoProc) Transmit(t int) (any, bool) {
	return p.env.ID, p.tx
}
func (p *echoProc) Receive(t, from int, payload any, ok bool) {
	p.got = append(p.got, from)
	p.okay = append(p.okay, ok)
	if ok && payload.(int) != from {
		panic("payload does not match transmitter slot")
	}
}

func receptionDual(t *testing.T, n int) *dualgraph.Dual {
	t.Helper()
	// Edgeless dual graph: under a reception model the edges play no role,
	// so the starkest test topology is no edges at all.
	d, err := dualgraph.Abstract(n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReceptionModelDelivery checks the outcome translation: decoded
// transmitter → successful Receive with that node's payload, Blocked →
// collision statistics, silence → untouched, and transmitters always ⊥.
func TestReceptionModelDelivery(t *testing.T) {
	const n = 4
	d := receptionDual(t, n)
	procs := make([]Process, n)
	eps := make([]*echoProc, n)
	for u := range procs {
		eps[u] = &echoProc{tx: u == 0 || u == 1}
		procs[u] = eps[u]
	}
	m := &stubModel{script: map[int][]int32{
		1: {NoTransmitter, NoTransmitter, 1, Blocked}, // 2 hears 1, 3 blocked
	}}
	e, err := New(Config{Dual: d, Procs: procs, Reception: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()

	if got := eps[2].got[0]; got != 1 || !eps[2].okay[0] {
		t.Errorf("node 2: got from=%d ok=%v, want 1/true", got, eps[2].okay[0])
	}
	if eps[3].okay[0] {
		t.Error("blocked node 3 must receive ⊥")
	}
	for _, u := range []int{0, 1} {
		if eps[u].okay[0] {
			t.Errorf("transmitter %d must receive ⊥", u)
		}
	}
	tr := e.Trace()
	if tr.Transmissions != 2 || tr.Deliveries != 1 || tr.Collisions != 1 {
		t.Errorf("stats tx/del/col = %d/%d/%d, want 2/1/1",
			tr.Transmissions, tr.Deliveries, tr.Collisions)
	}
}

// TestReceptionModelTransmitterEntriesIgnored: the model's entries for
// transmitting nodes must not leak deliveries to them.
func TestReceptionModelTransmitterEntriesIgnored(t *testing.T) {
	const n = 2
	d := receptionDual(t, n)
	eps := []*echoProc{{tx: true}, {}}
	m := &stubModel{script: map[int][]int32{1: {1, 0}}} // nonsense entry for tx node 0
	e, err := New(Config{Dual: d, Procs: []Process{eps[0], eps[1]}, Reception: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if eps[0].okay[0] {
		t.Error("transmitter with a scripted delivery slot still received")
	}
	if !eps[1].okay[0] || eps[1].got[0] != 0 {
		t.Errorf("listener got from=%d ok=%v, want 0/true", eps[1].got[0], eps[1].okay[0])
	}
}

// TestReceptionModelExcludesSched pins the Config validation.
func TestReceptionModelExcludesSched(t *testing.T) {
	d := receptionDual(t, 2)
	procs := []Process{&echoProc{}, &echoProc{}}
	_, err := New(Config{Dual: d, Procs: procs,
		Reception: &stubModel{}, Sched: sched.Always{}})
	if err == nil {
		t.Fatal("Config with both Sched and Reception accepted")
	}
}

// TestReceptionModelMultiRound: silence rounds leave every process at ⊥ and
// the model runs under every driver with identical outcomes.
func TestReceptionModelDrivers(t *testing.T) {
	const n = 3
	script := map[int][]int32{
		1: {NoTransmitter, 0, 0},
		3: {NoTransmitter, Blocked, 0},
	}
	run := func(driver Driver) []int {
		d := receptionDual(t, n)
		eps := make([]*echoProc, n)
		procs := make([]Process, n)
		for u := range procs {
			eps[u] = &echoProc{tx: u == 0}
			procs[u] = eps[u]
		}
		e, err := New(Config{Dual: d, Procs: procs, Reception: &stubModel{script: script},
			Seed: 9, Driver: driver, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(3)
		var flat []int
		for _, p := range eps {
			flat = append(flat, p.got...)
		}
		return flat
	}
	seq := run(DriverSequential)
	got := run(DriverWorkerPool)
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("worker pool diverges at %d: %d vs %d", i, got[i], seq[i])
		}
	}
}
