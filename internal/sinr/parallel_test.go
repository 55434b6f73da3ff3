package sinr

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// coinTxProc transmits by private coin and records every reception into the
// trace, making trace equality a per-listener, per-round reception check.
type coinTxProc struct {
	env *sim.NodeEnv
	p   float64
}

func (c *coinTxProc) Init(env *sim.NodeEnv) { c.env = env }

func (c *coinTxProc) Transmit(t int) (any, bool) {
	return c.env.ID, c.env.Rng.Coin(c.p)
}

func (c *coinTxProc) Receive(t, from int, payload any, ok bool) {
	if ok {
		c.env.Rec.Record(sim.Event{Round: t, Node: c.env.ID, Kind: sim.EvHear, From: from})
	}
}

// TestParallelResolveBitIdentity pins the sharded SINR resolver against the
// sequential driver at full trace granularity: worker counts {1, 2, 7,
// GOMAXPROCS} must reproduce the sequential execution byte for byte. The
// placement is large enough to clear the engine's listener-count gate. Run
// under -race to also certify the shards' synchronisation.
func TestParallelResolveBitIdentity(t *testing.T) {
	d, err := dualgraph.RandomGeometric(400, 10, 10, 1.5, dualgraph.GreyUnreliable, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}

	run := func(driver sim.Driver, workers int) *sim.Trace {
		m, err := NewModel(d.Emb, UniformPower(1), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]sim.Process, d.N())
		for u := range procs {
			procs[u] = &coinTxProc{p: 0.25}
		}
		e, err := sim.New(sim.Config{
			Dual: d, Procs: procs, Reception: m, Seed: 23,
			Driver: driver, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(40)
		return e.Trace()
	}

	ref := run(sim.DriverSequential, 0)
	if ref.Deliveries == 0 {
		t.Fatalf("degenerate reference run: no deliveries")
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := run(sim.DriverWorkerPool, workers)
			if got.Len() != ref.Len() || got.Transmissions != ref.Transmissions ||
				got.Deliveries != ref.Deliveries || got.Collisions != ref.Collisions {
				t.Fatalf("aggregates diverged: %d/%d/%d/%d vs %d/%d/%d/%d",
					got.Len(), got.Transmissions, got.Deliveries, got.Collisions,
					ref.Len(), ref.Transmissions, ref.Deliveries, ref.Collisions)
			}
			for i := 0; i < ref.Len(); i++ {
				if got.At(i) != ref.At(i) {
					t.Fatalf("event %d diverged: %+v vs %+v", i, got.At(i), ref.At(i))
				}
			}
		})
	}
}

// TestResolveRangePartitionInvariance checks the ShardedReceptionModel
// contract directly, without an engine: any partition of the listener range
// must reproduce Resolve's output exactly, for sparse and dense transmitter
// sets.
func TestResolveRangePartitionInvariance(t *testing.T) {
	rng := xrand.New(31)
	const n = 300
	side := math.Sqrt(n / 4.0)
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	m, err := NewModel(pos, UniformPower(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	for _, txCount := range []int{27, 72} {
		txs := make([]int32, 0, txCount)
		seen := make(map[int32]bool)
		for len(txs) < txCount {
			v := int32(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				txs = append(txs, v)
			}
		}
		// Resolve expects ascending transmitter ids.
		for i := 1; i < len(txs); i++ {
			for j := i; j > 0 && txs[j] < txs[j-1]; j-- {
				txs[j], txs[j-1] = txs[j-1], txs[j]
			}
		}

		want := make([]int32, n)
		m.Resolve(1, txs, want)

		for _, pieces := range []int{1, 3, 7} {
			got := make([]int32, n)
			if !m.PrepareRound(1, txs) {
				t.Fatalf("PrepareRound must opt in")
			}
			chunk := (n + pieces - 1) / pieces
			for lo := 0; lo < n; lo += chunk {
				m.ResolveRange(1, txs, got, lo, min(lo+chunk, n))
			}
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("txs=%d pieces=%d: listener %d got %d, want %d",
						txCount, pieces, u, got[u], want[u])
				}
			}
		}
	}
}
