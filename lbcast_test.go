package lbcast

import (
	"math"
	"testing"
)

func TestNewClusterBasics(t *testing.T) {
	nw, err := NewCluster(6, WithEpsilon(0.25), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 6 {
		t.Errorf("Size = %d", nw.Size())
	}
	s := nw.Schedule()
	if s.Delta != 6 || s.Epsilon != 0.25 {
		t.Errorf("Schedule = %+v", s)
	}
	if s.TAck < s.TProg || s.TProg < 1 {
		t.Errorf("bounds inconsistent: %+v", s)
	}
	if s.PhaseRounds != s.TProg {
		t.Errorf("phase length %d ≠ t_prog %d", s.PhaseRounds, s.TProg)
	}
}

func TestBroadcastDeliveryAndAck(t *testing.T) {
	nw, err := NewCluster(5, WithEpsilon(0.2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	recvd := map[int]bool{}
	nw.OnReceive(func(node int, d Delivery) {
		if d.Payload != "hi" {
			t.Errorf("payload = %v", d.Payload)
		}
		if d.ID.Src() != 0 || d.From != 0 {
			t.Errorf("delivery origin wrong: %+v", d)
		}
		recvd[node] = true
	})
	var ackedNode = -1
	nw.OnAck(func(node int, id MessageID) { ackedNode = node })

	id, err := nw.Broadcast(0, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Busy(0) {
		t.Error("node 0 not busy after Broadcast")
	}
	if !nw.RunUntilAck(id) {
		t.Fatal("broadcast never acknowledged")
	}
	if !nw.Acked(id) || ackedNode != 0 {
		t.Errorf("ack bookkeeping: acked=%v node=%d", nw.Acked(id), ackedNode)
	}
	if nw.Busy(0) {
		t.Error("node 0 still busy after ack")
	}
	// ε=0.2 on a 5-clique: all four neighbors should usually have received.
	if len(recvd) < 3 {
		t.Errorf("only %d neighbors received", len(recvd))
	}
	tx, del, _ := nw.Stats()
	if tx == 0 || del == 0 {
		t.Errorf("stats empty: tx=%d del=%d", tx, del)
	}
}

func TestBroadcastValidation(t *testing.T) {
	nw, err := NewCluster(3, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(-1, "x"); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := nw.Broadcast(3, "x"); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := nw.Broadcast(0, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Broadcast(0, "second"); err == nil {
		t.Error("second broadcast accepted while busy")
	}
}

// TestBusyOutOfRange: Busy answers false for nodes outside [0, Size()),
// the same nodes Broadcast rejects with an error, instead of panicking.
func TestBusyOutOfRange(t *testing.T) {
	nw, err := NewCluster(4, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []int{-1, nw.Size()} {
		if nw.Busy(node) {
			t.Errorf("Busy(%d) = true on a %d-node network", node, nw.Size())
		}
		if _, err := nw.Broadcast(node, "x"); err == nil {
			t.Errorf("Broadcast(%d) accepted on a %d-node network", node, nw.Size())
		}
	}
}

func TestNewGeometric(t *testing.T) {
	// Two nodes at distance 0.5 (reliable) and one at 1.5 (unreliable from
	// the middle with r=2).
	pts := []Point{{0, 0}, {0.5, 0}, {2, 0}}
	nw, err := NewGeometric(pts, 2, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 3 {
		t.Errorf("Size = %d", nw.Size())
	}
	s := nw.Schedule()
	if s.DeltaPrime < s.Delta {
		t.Errorf("Δ'=%d < Δ=%d", s.DeltaPrime, s.Delta)
	}
}

func TestNewGeometricInvalid(t *testing.T) {
	if _, err := NewGeometric(nil, 1); err == nil {
		t.Error("empty embedding accepted")
	}
	if _, err := NewGeometric([]Point{{0, 0}}, 0.5); err == nil {
		t.Error("r < 1 accepted")
	}
}

func TestNewRandomGeometric(t *testing.T) {
	nw, err := NewRandomGeometric(40, 4, 4, 1.5, WithSeed(11), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Size() != 40 {
		t.Errorf("Size = %d", nw.Size())
	}
	nw.Run(10)
	if nw.Round() != 10 {
		t.Errorf("Round = %d", nw.Round())
	}
}

func TestDeterminismAcrossNetworks(t *testing.T) {
	run := func() (int, int, int) {
		nw, err := NewCluster(6, WithSeed(42), WithEpsilon(0.25))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Broadcast(0, "d"); err != nil {
			t.Fatal(err)
		}
		nw.Run(500)
		return nw.Stats()
	}
	t1, d1, c1 := run()
	t2, d2, c2 := run()
	if t1 != t2 || d1 != d2 || c1 != c2 {
		t.Errorf("identical configs diverged: (%d,%d,%d) vs (%d,%d,%d)", t1, d1, c1, t2, d2, c2)
	}
}

func TestSchedulerOptions(t *testing.T) {
	for _, s := range []Scheduler{ScheduleNever(), ScheduleAlways(), ScheduleRandom(0.3, 5), ScheduleAntiDecay(4)} {
		nw, err := NewRandomGeometric(15, 3, 3, 2, WithScheduler(s), WithSeed(6))
		if err != nil {
			t.Fatalf("scheduler %s: %v", s.name, err)
		}
		nw.Run(50)
	}
}

func TestSeedAgreementEveryOption(t *testing.T) {
	nw, err := NewCluster(4, WithSeedAgreementEvery(2), WithSeed(8), WithEpsilon(0.25))
	if err != nil {
		t.Fatal(err)
	}
	id, err := nw.Broadcast(0, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if !nw.RunUntilAck(id) {
		t.Error("no ack under k=2 seed agreement")
	}
}

func TestEmptyNetworkRejected(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestDriverParityThroughFacade(t *testing.T) {
	run := func(d Driver) (int, int, int) {
		nw, err := NewCluster(6, WithSeed(77), WithEpsilon(0.25), WithDriver(d))
		if err != nil {
			t.Fatal(err)
		}
		defer nw.Close()
		if _, err := nw.Broadcast(0, "parity"); err != nil {
			t.Fatal(err)
		}
		nw.Run(600)
		return nw.Stats()
	}
	t1, d1, c1 := run(DriverSequential)
	if t2, d2, c2 := run(DriverWorkerPool); t1 != t2 || d1 != d2 || c1 != c2 {
		t.Errorf("worker pool diverged: (%d,%d,%d) vs (%d,%d,%d)", t2, d2, c2, t1, d1, c1)
	}
}

// TestHostileInputsReturnErrors feeds every constructor input class a
// caller controls — sizes, coordinates, r, w, h, ε, the seed-agreement
// period and the driver — values that are negative, NaN, infinite, unknown
// or so large that the schedule or the neighbour stencil would not fit.
// Each must come back as an error, promptly: never a panic, a hang or a
// giant allocation.
func TestHostileInputsReturnErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		build func() (*Network, error)
	}{
		{"negative cluster", func() (*Network, error) { return NewCluster(-1) }},
		{"NaN coordinate", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {nan, 0.5}}, 1.5)
		}},
		{"infinite coordinate", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, -inf}}, 1.5)
		}},
		{"coordinate beyond the grid", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {1e300, 0}}, 1.5)
		}},
		{"NaN r, explicit placement", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, 0}}, nan)
		}},
		{"infinite r, explicit placement", func() (*Network, error) {
			return NewGeometric([]Point{{0, 0}, {0.5, 0}}, inf)
		}},
		{"NaN r", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, nan) }},
		{"infinite r", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, inf) }},
		{"NaN w", func() (*Network, error) { return NewRandomGeometric(10, nan, 3, 1.5) }},
		{"infinite w", func() (*Network, error) { return NewRandomGeometric(10, inf, 3, 1.5) }},
		{"NaN h", func() (*Network, error) { return NewRandomGeometric(10, 3, nan, 1.5) }},
		{"infinite h", func() (*Network, error) { return NewRandomGeometric(10, 3, inf, 1.5) }},
		{"unbounded radius", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, 1e9) }},
		{"radius 1000", func() (*Network, error) { return NewRandomGeometric(10, 3, 3, 1000) }},
		{"unbounded radius, spread placement", func() (*Network, error) {
			return NewRandomGeometric(10, 1e6, 1e6, 1e9)
		}},
		{"tiny epsilon", func() (*Network, error) { return NewCluster(8, WithEpsilon(1e-300)) }},
		{"NaN epsilon", func() (*Network, error) { return NewCluster(8, WithEpsilon(nan)) }},
		{"huge seed-agreement period", func() (*Network, error) {
			return NewCluster(8, WithSeedAgreementEvery(1<<40))
		}},
		{"unknown driver", func() (*Network, error) { return NewCluster(8, WithDriver(Driver(3))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			nw, err := tc.build()
			if err == nil {
				nw.Close()
				t.Fatal("accepted")
			}
		})
	}
}
