package workload

import (
	"hash/fnv"
	"testing"

	"lbcast/internal/baseline"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/xrand"
)

// loadFingerprint is the golden execution fingerprint of the load soak: the
// engine-trace reduction churn's soak pins, plus the workload metrics hash,
// so a divergence in either the physical execution or the SLO accounting
// trips it.
type loadFingerprint struct {
	Rounds        int
	Events        int
	Transmissions int
	Deliveries    int
	Collisions    int
	Checksum      uint64
	Metrics       uint64
}

// engineChecksum folds every trace event positionally, the same reduction as
// churn's soak fingerprint.
func engineChecksum(tr *sim.Trace) uint64 {
	var checksum uint64
	i := 0
	for ev := range tr.Events() {
		checksum = checksum*1099511628211 ^
			uint64(ev.Round)<<32 ^ uint64(ev.Node)<<16 ^ uint64(ev.Kind)<<8 ^
			uint64(int64(ev.From)) ^ uint64(i)
		i++
	}
	return checksum
}

// Fingerprint reduces the metrics to one hash: every counter, both
// histograms bin by bin, and the depth series. The soak and the driver
// tests compare fingerprints across drivers and against the pinned run.
func (m *Metrics) Fingerprint() uint64 {
	h := fnv.New64a()
	add := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	// The 0 stands where a count of broadcasts abandoned by churn restarts
	// was hashed; nothing produces one, and the pinned hash covers the slot.
	add(int64(m.Rounds), int64(m.Offered), int64(m.Accepted), int64(m.Dropped),
		int64(m.Bcasts), int64(m.Acks), 0, m.DepthSum, int64(m.DepthMax))
	for _, hist := range []*stats.Histogram{m.Sojourn, m.Service} {
		for v, c := range hist.Counts() {
			if c != 0 {
				add(int64(v), int64(c))
			}
		}
	}
	for _, d := range m.Depth {
		add(int64(d.Round), int64(d.Total), int64(d.Max))
	}
	return h.Sum64()
}

func loadSoakFingerprint(tr *sim.Trace, m *Metrics) loadFingerprint {
	return loadFingerprint{
		Rounds:        tr.RoundsRun,
		Events:        tr.Len(),
		Transmissions: tr.Transmissions,
		Deliveries:    tr.Deliveries,
		Collisions:    tr.Collisions,
		Checksum:      engineChecksum(tr),
		Metrics:       m.Fingerprint(),
	}
}

// loadSoakWant pins the soak execution. The open-loop traffic engine must be
// a pure function of (topology, plan, seed) on every driver and worker
// count; if an intentional change to the RNG streams, the dispatch order or
// the metrics folding alters this, update the pinned values and call it out
// in the change description.
var loadSoakWant = loadFingerprint{
	Rounds:        10000,
	Events:        451151,
	Transmissions: 165216,
	Deliveries:    325721,
	Collisions:    510734,
	Checksum:      1585439882494357374,
	Metrics:       9393328552179487621,
}

// loadSoakRun executes the soak: 10⁴ rounds of Poisson offered load over 150
// Decay nodes on the soak topology, shallow drop-oldest queues so the
// eviction path stays hot.
func loadSoakRun(t testing.TB, driver sim.Driver, workers int) loadFingerprint {
	t.Helper()
	d, err := dualgraph.RandomGeometric(150, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Poisson(PoissonConfig{N: d.N(), Rounds: 10_000, Rate: 0.004, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ackRounds := baseline.DecayAckRounds(d.Delta(), 0.2)
	svcs := make([]core.Service, d.N())
	procs := make([]sim.Process, d.N())
	for u := range svcs {
		svcs[u] = baseline.NewDecay(baseline.DecayParams{Delta: d.Delta(), AckRounds: ackRounds})
		procs[u] = svcs[u]
	}
	traffic, err := NewTraffic(Config{
		Plan: plan, Services: svcs, Capacity: 4, Policy: DropOldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Dual: d, Procs: procs, Env: traffic,
		Sched: sched.NewRandom(0.5, 3), Seed: 8,
		Driver: driver, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Run(plan.Rounds)
	m := traffic.Metrics()
	if m.Acks == 0 || m.Offered == 0 {
		t.Fatalf("degenerate soak: %d offered, %d acks", m.Offered, m.Acks)
	}
	return loadSoakFingerprint(eng.Trace(), m)
}

// TestLoadSoak is the CI soak for the traffic engine: a 10⁴-round offered-
// load run must reproduce the pinned golden fingerprint on the sequential
// driver and byte-identically on the worker pool at 1 and 4 workers. Under
// -race this also exercises the OnAck write path (concurrent deliver across
// nodes) against the single-threaded AfterRound folding.
func TestLoadSoak(t *testing.T) {
	seq := loadSoakRun(t, sim.DriverSequential, 0)
	if seq != loadSoakWant {
		t.Errorf("sequential load soak fingerprint changed:\n got  %+v\n want %+v\n"+
			"(if this change is intentional, update loadSoakWant and explain why)", seq, loadSoakWant)
	}
	for _, workers := range []int{1, 4} {
		if got := loadSoakRun(t, sim.DriverWorkerPool, workers); got != seq {
			t.Errorf("worker-pool(%d) load soak diverged from sequential:\n got  %+v\n want %+v",
				workers, got, seq)
		}
	}
}
