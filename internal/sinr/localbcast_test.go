package sinr

import (
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

func TestLayerAckRounds(t *testing.T) {
	if a, b := LayerAckRounds(8, 0.2), LayerAckRounds(16, 0.2); a >= b {
		t.Errorf("ack budget not increasing in Δ: %d vs %d", a, b)
	}
	if a, b := LayerAckRounds(8, 0.2), LayerAckRounds(8, 0.01); a >= b {
		t.Errorf("ack budget not increasing in 1/ε: %d vs %d", a, b)
	}
	if LayerAckRounds(0, 0) < 1 {
		t.Error("degenerate parameters must still give a positive budget")
	}
}

// buildLayerNetwork wires LocalBcast processes over a SINR model derived
// from a dual graph's embedding.
func buildLayerNetwork(t *testing.T, seed uint64) (*sim.Engine, []*LocalBcast, *dualgraph.Dual) {
	t.Helper()
	d, err := dualgraph.RandomGeometric(24, 3, 3, 1.5, dualgraph.GreyUnreliable, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(d.Emb, UniformPower(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*LocalBcast, d.N())
	simProcs := make([]sim.Process, d.N())
	svcs := make([]core.Service, d.N())
	for u := range procs {
		procs[u] = NewLocalBcast(LayerParams{Delta: d.DeltaPrime(), Eps: 0.2})
		simProcs[u] = procs[u]
		svcs[u] = procs[u]
	}
	env := core.NewSaturatingEnv(svcs, []int{0, 1})
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Reception: m, Env: env, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e, procs, d
}

// TestLocalBcastAcksAndDelivers runs the layer over the SINR model end to
// end: saturated senders must complete broadcasts and neighbors must
// produce recv outputs.
func TestLocalBcastAcksAndDelivers(t *testing.T) {
	e, procs, _ := buildLayerNetwork(t, 5)
	window := procs[0].p.AckRounds
	e.Run(3*window + 5)
	tr := e.Trace()
	if got := len(tr.ByKind(sim.EvAck)); got < 4 {
		t.Errorf("expected ≥ 4 acks over 3 windows of 2 saturated senders, got %d", got)
	}
	if len(tr.ByKind(sim.EvRecv)) == 0 {
		t.Error("no recv outputs recorded")
	}
	if tr.Deliveries == 0 {
		t.Error("no channel deliveries recorded")
	}
}

// TestLocalBcastDeterministicForSeed pins the satellite requirement:
// reception under the SINR model must be deterministic for a fixed seed —
// two runs of the identical configuration produce byte-identical traces.
func TestLocalBcastDeterministicForSeed(t *testing.T) {
	run := func() *sim.Trace {
		e, procs, _ := buildLayerNetwork(t, 42)
		e.Run(2*procs[0].p.AckRounds + 7)
		return e.Trace()
	}
	a, b := run(), run()
	if a.Len() != b.Len() || a.Transmissions != b.Transmissions ||
		a.Deliveries != b.Deliveries || a.Collisions != b.Collisions {
		t.Fatalf("aggregate divergence: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Len(), a.Transmissions, a.Deliveries, a.Collisions,
			b.Len(), b.Transmissions, b.Deliveries, b.Collisions)
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.At(i), b.At(i))
		}
	}
}

// TestLocalBcastRejectsDoubleBcast enforces environment well-formedness.
func TestLocalBcastRejectsDoubleBcast(t *testing.T) {
	l := NewLocalBcast(LayerParams{Delta: 4, Eps: 0.2})
	l.Init(&sim.NodeEnv{ID: 0, Rng: xrand.NodeSource(1, 0), Rec: discardRec{}})
	if _, err := l.Bcast("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Bcast("b"); err == nil {
		t.Error("second Bcast while active must fail")
	}
}

type discardRec struct{}

func (discardRec) Record(sim.Event) {}
