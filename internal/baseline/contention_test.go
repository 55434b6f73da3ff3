package baseline

import (
	"math"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

func TestContentionAckRounds(t *testing.T) {
	if a, b := ContentionAckRounds(8, 0.2), ContentionAckRounds(16, 0.2); a >= b {
		t.Errorf("ack budget not increasing in Δ′: %d vs %d", a, b)
	}
	if a, b := ContentionAckRounds(8, 0.2), ContentionAckRounds(8, 0.02); a >= b {
		t.Errorf("ack budget not increasing in 1/ε: %d vs %d", a, b)
	}
	if ContentionAckRounds(0, -1) < 1 {
		t.Error("degenerate parameters must still give a positive budget")
	}
}

func TestContentionProb(t *testing.T) {
	uni := NewContention(ContentionParams{DeltaPrime: 16, Strategy: StrategyUniform, Eps: 0.2})
	for _, round := range []int{1, 2, 17, 100} {
		if got := uni.Prob(round); got != 1.0/16 {
			t.Errorf("uniform prob at t=%d: %v, want 1/16", round, got)
		}
	}
	cyc := NewContention(ContentionParams{DeltaPrime: 16, Strategy: StrategyCycling, Eps: 0.2})
	// ⌈log₂ 16⌉ = 4: probabilities ½, ¼, ⅛, 1/16, then the cycle repeats.
	want := []float64{0.5, 0.25, 0.125, 0.0625, 0.5}
	for i, w := range want {
		if got := cyc.Prob(i + 1); math.Abs(got-w) > 1e-12 {
			t.Errorf("cycling prob at t=%d: %v, want %v", i+1, got, w)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyUniform.String() != "uniform" || StrategyCycling.String() != "cycling" {
		t.Error("strategy names changed")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy formatting changed")
	}
}

// TestContentionBroadcastCycle runs the baseline over a dual graph and
// checks the full bcast→recv→ack cycle plus well-formedness.
func TestContentionBroadcastCycle(t *testing.T) {
	for _, strat := range []Strategy{StrategyUniform, StrategyCycling} {
		d, err := dualgraph.SingleHopCluster(8, 1, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Contention, d.N())
		simProcs := make([]sim.Process, d.N())
		svcs := make([]core.Service, d.N())
		for u := range procs {
			procs[u] = NewContention(ContentionParams{
				DeltaPrime: d.DeltaPrime(), Strategy: strat, Eps: 0.2})
			simProcs[u] = procs[u]
			svcs[u] = procs[u]
		}
		env := core.NewSaturatingEnv(svcs, []int{0})
		e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Env: env, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		window := procs[0].p.AckRounds
		e.Run(2*window + 2)
		tr := e.Trace()
		if len(tr.ByKind(sim.EvAck)) < 2 {
			t.Errorf("%v: expected ≥ 2 acks, got %d", strat, len(tr.ByKind(sim.EvAck)))
		}
		if len(tr.ByKind(sim.EvRecv)) == 0 {
			t.Errorf("%v: no recv outputs", strat)
		}
		// Ack latency is deterministic: the bcast round itself counts, so
		// every ack lands exactly AckRounds−1 rounds after its bcast.
		bc := map[sim.MsgID]int{}
		for ev := range tr.Events() {
			switch ev.Kind {
			case sim.EvBcast:
				bc[ev.MsgID] = ev.Round
			case sim.EvAck:
				if got := ev.Round - bc[ev.MsgID]; got != window-1 {
					t.Errorf("%v: ack latency %d, want %d", strat, got, window-1)
				}
			}
		}
	}
}

func TestContentionRejectsDoubleBcast(t *testing.T) {
	c := NewContention(ContentionParams{DeltaPrime: 8, Eps: 0.2})
	c.Init(&sim.NodeEnv{ID: 0, Rng: xrand.NodeSource(1, 0), Rec: discardRec{}})
	if _, err := c.Bcast("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bcast("b"); err == nil {
		t.Error("second Bcast while active must fail")
	}
}

type discardRec struct{}

func (discardRec) Record(sim.Event) {}

// TestContentionProbTableMatchesFormula pins both strategies' precomputed
// probability cycles to the formulas they cache.
func TestContentionProbTableMatchesFormula(t *testing.T) {
	for _, dp := range []int{2, 3, 16, 70} {
		uni := NewContention(ContentionParams{DeltaPrime: dp, Strategy: StrategyUniform})
		cyc := NewContention(ContentionParams{DeltaPrime: dp, Strategy: StrategyCycling})
		cycle := seedagree.Log2Ceil(dp)
		for tr := 1; tr <= 3*cycle+1; tr++ {
			if got, want := uni.Prob(tr), 1/float64(dp); got != want {
				t.Fatalf("Δ′=%d round %d: uniform Prob = %v, want %v", dp, tr, got, want)
			}
			if got, want := cyc.Prob(tr), math.Pow(2, -float64(1+(tr-1)%cycle)); got != want {
				t.Fatalf("Δ′=%d round %d: cycling Prob = %v, want %v", dp, tr, got, want)
			}
		}
	}
}
