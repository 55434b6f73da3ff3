package workload

import (
	"errors"
	"strings"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/sim"
)

// stubService is a minimal core.Service for driving Traffic without an
// engine: the test toggles its busy flag and fires its ack callback by hand.
type stubService struct {
	busy    bool
	fail    error
	onAck   func(core.Message)
	payload []any
}

func (s *stubService) Init(*sim.NodeEnv)                 {}
func (s *stubService) Transmit(int) (any, bool)          { return nil, false }
func (s *stubService) Receive(int, int, any, bool)       {}
func (s *stubService) Active() bool                      { return s.busy }
func (s *stubService) SetOnAck(f func(core.Message))     { s.onAck = f }
func (s *stubService) SetOnRecv(func(core.Message, int)) {}

func (s *stubService) Bcast(p any) (sim.MsgID, error) {
	if s.fail != nil {
		return 0, s.fail
	}
	s.busy = true
	s.payload = append(s.payload, p)
	return sim.NewMsgID(0, len(s.payload)), nil
}

// ack completes the in-flight broadcast, as a Receive would mid-round.
func (s *stubService) ack() {
	s.busy = false
	s.onAck(core.Message{})
}

func stubTraffic(t *testing.T, plan *Plan, capacity int, policy DropPolicy) (*Traffic, []*stubService) {
	t.Helper()
	stubs := make([]*stubService, plan.N)
	svcs := make([]core.Service, plan.N)
	for u := range stubs {
		stubs[u] = &stubService{}
		svcs[u] = stubs[u]
	}
	tr, err := NewTraffic(Config{Plan: plan, Services: svcs, Capacity: capacity, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return tr, stubs
}

func TestTrafficDispatchAndSojourn(t *testing.T) {
	plan := &Plan{N: 2, Rounds: 10, Arrivals: []Arrival{{Round: 1, Node: 0}, {Round: 3, Node: 1}}}
	tr, stubs := stubTraffic(t, plan, 4, DropNewest)

	tr.BeforeRound(1) // node 0's arrival lands and dispatches immediately
	if len(stubs[0].payload) != 1 || len(stubs[1].payload) != 0 {
		t.Fatalf("dispatch wrong: %d/%d bcasts", len(stubs[0].payload), len(stubs[1].payload))
	}
	tr.AfterRound(1)

	tr.BeforeRound(2)
	tr.AfterRound(2)

	tr.BeforeRound(3)
	stubs[0].ack() // node 0 acks during round 3
	tr.AfterRound(3)

	tr.BeforeRound(4)
	stubs[1].ack() // node 1 (dispatched round 3) acks during round 4
	tr.AfterRound(4)

	m := tr.Metrics()
	if m.Offered != 2 || m.Accepted != 2 || m.Dropped != 0 || m.Bcasts != 2 || m.Acks != 2 {
		t.Fatalf("counters wrong: %+v", m)
	}
	// Node 0: arrived 1, sent 1, acked 3 → sojourn 2, service 2.
	// Node 1: arrived 3, sent 3, acked 4 → sojourn 1, service 1.
	if m.Sojourn.Quantile(0.5) != 1 || m.Sojourn.Quantile(1) != 2 {
		t.Errorf("sojourn histogram wrong: p50=%d max=%d",
			m.Sojourn.Quantile(0.5), m.Sojourn.Quantile(1))
	}
	if m.Service.Quantile(1) != 2 {
		t.Errorf("service histogram wrong: max=%d", m.Service.Quantile(1))
	}
}

// TestTrafficQueueWait pins that sojourn includes queue wait: a message
// arriving while its node is busy waits for the ack before dispatch.
func TestTrafficQueueWait(t *testing.T) {
	plan := &Plan{N: 1, Rounds: 20, Arrivals: []Arrival{{Round: 1, Node: 0}, {Round: 2, Node: 0}}}
	tr, stubs := stubTraffic(t, plan, 4, DropNewest)

	tr.BeforeRound(1)
	tr.AfterRound(1)
	tr.BeforeRound(2) // second arrival queues behind the in-flight first
	if got := tr.queues[0].len(); got != 1 {
		t.Fatalf("queue depth %d, want 1", got)
	}
	tr.AfterRound(2)
	tr.BeforeRound(3)
	stubs[0].ack() // first message acks in round 3...
	tr.AfterRound(3)
	tr.BeforeRound(4) // ...so the queued one dispatches in round 4
	tr.AfterRound(4)
	tr.BeforeRound(5)
	stubs[0].ack()
	tr.AfterRound(5)

	m := tr.Metrics()
	if m.Acks != 2 {
		t.Fatalf("acks = %d, want 2", m.Acks)
	}
	// Second message: arrived 2, sent 4, acked 5 → sojourn 3, service 1.
	if m.Sojourn.Quantile(1) != 3 || m.Service.Quantile(1) != 2 {
		t.Errorf("sojourn max %d (want 3), service max %d (want 2)",
			m.Sojourn.Quantile(1), m.Service.Quantile(1))
	}
	// DepthSum integrated one queued round (round 2 end, rounds 3 on it is
	// still queued until dispatched in 4): rounds 2 and 3 have depth 1.
	if m.DepthSum != 2 || m.DepthMax != 1 {
		t.Errorf("depth accounting: sum=%d max=%d, want 2/1", m.DepthSum, m.DepthMax)
	}
}

func TestTrafficDropPolicies(t *testing.T) {
	burst := []Arrival{{Round: 1, Node: 0}, {Round: 1, Node: 0}, {Round: 1, Node: 0}}
	plan := &Plan{N: 1, Rounds: 5, Arrivals: burst}

	// Keep the node busy so nothing dispatches: capacity 1 queue fills on
	// the first arrival.
	t.Run("drop-newest", func(t *testing.T) {
		tr, stubs := stubTraffic(t, plan, 1, DropNewest)
		stubs[0].busy = true
		tr.BeforeRound(1)
		tr.AfterRound(1)
		m := tr.Metrics()
		if m.Offered != 3 || m.Accepted != 1 || m.Dropped != 2 {
			t.Errorf("drop-newest counters: %+v", m)
		}
	})
	t.Run("drop-oldest", func(t *testing.T) {
		tr, stubs := stubTraffic(t, plan, 1, DropOldest)
		stubs[0].busy = true
		tr.BeforeRound(1)
		tr.AfterRound(1)
		m := tr.Metrics()
		// Every arrival is accepted; the two evicted heads are the drops.
		if m.Offered != 3 || m.Accepted != 3 || m.Dropped != 2 {
			t.Errorf("drop-oldest counters: %+v", m)
		}
		if m.Offered != m.Accepted+m.Dropped-2 { // eviction double-counts by design
			t.Errorf("drop-oldest accounting identity broken: %+v", m)
		}
	})
}

func TestTrafficBcastErrorRequeues(t *testing.T) {
	plan := &Plan{N: 1, Rounds: 5, Arrivals: []Arrival{{Round: 1, Node: 0}}}
	tr, stubs := stubTraffic(t, plan, 4, DropNewest)
	stubs[0].fail = errors.New("refused")
	tr.BeforeRound(1)
	tr.AfterRound(1)
	m := tr.Metrics()
	if m.Bcasts != 0 || tr.queues[0].len() != 1 || m.DepthSum != 1 {
		t.Errorf("failed Bcast lost the message: bcasts=%d depth=%d", m.Bcasts, tr.queues[0].len())
	}
	stubs[0].fail = nil
	tr.BeforeRound(2)
	tr.AfterRound(2)
	if m.Bcasts != 1 || tr.queues[0].len() != 0 {
		t.Errorf("requeued message not dispatched: bcasts=%d depth=%d", m.Bcasts, tr.queues[0].len())
	}
}

func TestTrafficDepthSeries(t *testing.T) {
	plan := &Plan{N: 2, Rounds: 6, Arrivals: []Arrival{{Round: 1, Node: 0}, {Round: 1, Node: 1}}}
	stubs := []*stubService{{busy: true}, {busy: true}}
	tr, err := NewTraffic(Config{
		Plan:     plan,
		Services: []core.Service{stubs[0], stubs[1]},
		Capacity: 4, DepthEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 6; r++ {
		tr.BeforeRound(r)
		tr.AfterRound(r)
	}
	m := tr.Metrics()
	if len(m.Depth) != 3 { // rounds 2, 4, 6
		t.Fatalf("depth series has %d samples, want 3: %+v", len(m.Depth), m.Depth)
	}
	for _, d := range m.Depth {
		if d.Total != 2 || d.Max != 1 {
			t.Errorf("depth sample wrong: %+v", d)
		}
	}
	if m.DepthSum != 12 {
		t.Errorf("DepthSum = %d, want 12", m.DepthSum)
	}
}

func TestTrafficFingerprint(t *testing.T) {
	run := func(seed uint64) uint64 {
		t.Helper()
		plan, err := Poisson(PoissonConfig{N: 4, Rounds: 200, Rate: 0.1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tr, stubs := stubTraffic(t, plan, 3, DropOldest)
		for r := 1; r <= plan.Rounds; r++ {
			tr.BeforeRound(r)
			if r%3 == 0 {
				for _, s := range stubs {
					if s.busy {
						s.ack()
					}
				}
			}
			tr.AfterRound(r)
		}
		return tr.Metrics().Fingerprint()
	}
	if run(1) != run(1) {
		t.Error("identical runs fingerprint differently")
	}
	if run(1) == run(2) {
		t.Error("different runs share a fingerprint")
	}
}

func TestNewTrafficValidation(t *testing.T) {
	plan := &Plan{N: 1, Rounds: 5}
	svc := []core.Service{&stubService{}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil plan", Config{Services: svc, Capacity: 1}, "needs a plan"},
		{"service mismatch", Config{Plan: &Plan{N: 2, Rounds: 5}, Services: svc, Capacity: 1}, "over 1 services"},
		{"zero capacity", Config{Plan: plan, Services: svc}, "capacity"},
		{"bad policy", Config{Plan: plan, Services: svc, Capacity: 1, Policy: DropPolicy(9)}, "drop policy"},
	}
	for _, tc := range cases {
		if _, err := NewTraffic(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestDropPolicyRoundTrip(t *testing.T) {
	for p, want := range map[DropPolicy]string{DropNewest: "drop-newest", DropOldest: "drop-oldest"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(p), got, want)
		}
	}
	if s := DropPolicy(7).String(); !strings.Contains(s, "7") {
		t.Errorf("unknown policy String = %q", s)
	}
}

func TestQueueRing(t *testing.T) {
	q := newQueue(3)
	for i := int32(0); i < 3; i++ {
		if !q.push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.push(99) {
		t.Error("push into full queue succeeded")
	}
	for i := int32(0); i < 3; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
	// Wrap-around FIFO order.
	q.push(10)
	q.push(11)
	q.pop()
	q.push(12)
	q.push(13)
	for _, want := range []int32{11, 12, 13} {
		if v, _ := q.pop(); v != want {
			t.Errorf("wrap order: got %d want %d", v, want)
		}
	}
}
