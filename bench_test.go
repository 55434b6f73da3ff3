package lbcast

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/exp"
	"lbcast/internal/sinr"
	"lbcast/internal/xrand"
)

// benchmarkExperiment runs one claim-reproduction experiment per iteration
// at bench scale. Each benchmark regenerates one EXPERIMENTS.md table set;
// run cmd/lbbench for the full-size tables.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.SizeSmall, uint64(i+1)); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Theorem 3.1: seed agreement δ bound.
func BenchmarkSeedDelta(b *testing.B) { benchmarkExperiment(b, "E-SEED-DELTA") }

// Theorem 3.1: seed agreement running time.
func BenchmarkSeedTime(b *testing.B) { benchmarkExperiment(b, "E-SEED-TIME") }

// Seed(δ, ε) specification conditions 1–4.
func BenchmarkSeedSpec(b *testing.B) { benchmarkExperiment(b, "E-SEED-SPEC") }

// Theorem 4.1: progress within t_prog.
func BenchmarkProgress(b *testing.B) { benchmarkExperiment(b, "E-PROG") }

// Theorem 4.1: reliability and t_ack.
func BenchmarkAck(b *testing.B) { benchmarkExperiment(b, "E-ACK") }

// Lemma 4.2: per-round reception probabilities.
func BenchmarkRecvProb(b *testing.B) { benchmarkExperiment(b, "E-RECV-PROB") }

// §4.1 deterministic conditions across workloads.
func BenchmarkDeterministic(b *testing.B) { benchmarkExperiment(b, "E-DET") }

// §1 Discussion: anti-Decay adversary vs fixed schedules.
func BenchmarkAdversarial(b *testing.B) { benchmarkExperiment(b, "E-ADV") }

// §1 near-optimality: Ω(logΔ) progress and Ω(Δ) acknowledgement floors.
func BenchmarkLowerBounds(b *testing.B) { benchmarkExperiment(b, "E-LOWER") }

// [11]: adaptive link schedulers kill progress.
func BenchmarkAdaptive(b *testing.B) { benchmarkExperiment(b, "E-ADAPT") }

// §1 true locality: guarantees independent of n.
func BenchmarkLocality(b *testing.B) { benchmarkExperiment(b, "E-LOCAL") }

// Lemmas A.1–A.3: region partition substrate.
func BenchmarkRegions(b *testing.B) { benchmarkExperiment(b, "E-REGION") }

// Abstract MAC layer composition: global broadcast.
func BenchmarkAmacBroadcast(b *testing.B) { benchmarkExperiment(b, "E-AMAC") }

// §4.2 remark: seed agreement every k phases.
func BenchmarkAblationSeedFreq(b *testing.B) { benchmarkExperiment(b, "E-ABL-FREQ") }

// [9,10] composition: multi-message broadcast over the layer.
func BenchmarkMMB(b *testing.B) { benchmarkExperiment(b, "E-MMB") }

// [20] composition: consensus over the layer.
func BenchmarkConsensus(b *testing.B) { benchmarkExperiment(b, "E-CONSENSUS") }

// Constant calibration sweeps.
func BenchmarkConstants(b *testing.B) { benchmarkExperiment(b, "E-CONST") }

// Comparison workloads: LBAlg vs SINR layer vs contention baselines.
func BenchmarkComparison(b *testing.B) { benchmarkExperiment(b, "E-COMPARE") }

// SINR reception model sanity.
func BenchmarkSINR(b *testing.B) { benchmarkExperiment(b, "E-SINR") }

// BenchmarkBroadcastAck measures one full bcast→ack cycle through the
// public API on an 8-node cluster.
func BenchmarkBroadcastAck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw, err := NewCluster(8, WithEpsilon(0.25), WithSeed(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		id, err := nw.Broadcast(0, i)
		if err != nil {
			b.Fatal(err)
		}
		if !nw.RunUntilAck(id) {
			b.Fatal("no ack")
		}
	}
}

// closedLoop makes every 20th node broadcast and re-broadcast from OnAck,
// so a round benchmark times the same traffic at any b.N instead of a
// network that goes idle once its first broadcasts ack. OnAck may run on
// worker goroutines, hence Errorf.
func closedLoop(b *testing.B, nw *Network) {
	nw.OnAck(func(node int, _ MessageID) {
		if _, err := nw.Broadcast(node, node); err != nil {
			b.Errorf("re-broadcast from node %d: %v", node, err)
		}
	})
	for u := 0; u < nw.Size(); u += 20 {
		if _, err := nw.Broadcast(u, u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkRound measures raw round throughput of a 200-node
// geometric network through the public API, ten senders in a closed loop.
func BenchmarkNetworkRound(b *testing.B) {
	nw, err := NewRandomGeometric(200, 6, 6, 1.5, WithSeed(1), WithEpsilon(0.25))
	if err != nil {
		b.Fatal(err)
	}
	closedLoop(b, nw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkNetworkRoundLarge is the scaling variant: 1000 nodes, 50
// senders in a closed loop. The transmitter-scatter kernel keeps per-round work
// proportional to the transmitter neighborhoods, not to Σ deg over all
// listeners, so rounds stay cheap as the network grows.
func BenchmarkNetworkRoundLarge(b *testing.B) {
	benchmarkNetworkRoundLarge(b, DriverSequential)
}

// BenchmarkNetworkRoundLargeParallel is the same workload under the
// worker-pool driver: transmit/deliver phases fan out over the pool and the
// scatter itself is sharded across workers with a deterministic merge, so
// the execution (and its trace) is identical to the sequential run.
func BenchmarkNetworkRoundLargeParallel(b *testing.B) {
	benchmarkNetworkRoundLarge(b, DriverWorkerPool)
}

func benchmarkNetworkRoundLarge(b *testing.B, driver Driver) {
	nw, err := NewRandomGeometric(1000, 13, 13, 1.5, WithSeed(1), WithEpsilon(0.25), WithDriver(driver))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(nw.Close)
	closedLoop(b, nw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkGeometricConstruction measures end-to-end dual graph construction
// at the 10⁴ sweep point: placement, grid-index pair scan, bulk graph build
// and trusted assembly. This is the construction path the CI regression gate
// watches alongside the round benchmarks.
func BenchmarkGeometricConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dualgraph.RandomGeometric(10000, 50, 50, 1.5,
			dualgraph.GreyUnreliable, xrand.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSINRRound measures one SINR resolution round on E-SINR's
// full-size configuration: its n = 1024 sweep-geometric placement,
// DefaultParams (Tolerance 0, the exact resolver) and uniform power, with
// 10% of nodes transmitting. A warm-up Resolve before the timer keeps any
// first-round scratch growth out of the measured rounds.
func BenchmarkSINRRound(b *testing.B) {
	d, err := dualgraph.RandomGeometric(1024, 16, 16, 1.5, dualgraph.GreyUnreliable, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), sinr.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	var txs []int32
	for u := 0; u < d.N(); u++ {
		if rng.Coin(0.1) {
			txs = append(txs, int32(u))
		}
	}
	out := make([]int32, d.N())
	model.Resolve(1, txs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Resolve(i+2, txs, out)
	}
}
