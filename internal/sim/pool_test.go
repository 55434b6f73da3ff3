package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// TestWorkerPoolPersistent pins the persistent-pool contract: once the first
// parallel phase has started the pool, running more rounds must not grow the
// process goroutine count — the workers are parked and reused, not spawned
// per phase — and Close must release them again.
func TestWorkerPoolPersistent(t *testing.T) {
	d, err := dualgraph.RandomGeometric(150, 5, 5, 1.6, dualgraph.GreyUnreliable, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, d.N())
	for u := range procs {
		procs[u] = &chattyProc{p: 0.5}
	}
	const workers = 7
	e, err := New(Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.4, 3), Seed: 5,
		Driver: DriverWorkerPool, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.Run(10) // starts the pool on the first parallel phase
	warm := runtime.NumGoroutine()
	e.Run(200)
	after := runtime.NumGoroutine()
	// Unrelated runtime goroutines may come and go; what must not appear is
	// per-phase spawning (2 phases × 200 rounds would dwarf any slack).
	if after > warm+3 {
		t.Fatalf("goroutine count grew from %d to %d across 200 rounds; pool is not persistent", warm, after)
	}

	e.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() >= warm && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got >= warm {
		t.Fatalf("goroutine count %d after Close, want below the %d of the running pool", got, warm)
	}
}

// TestWorkerPoolCloseIdempotent guards the Close contract shared by all
// drivers: closing twice (and closing an engine whose pool never started)
// must be safe.
func TestWorkerPoolCloseIdempotent(t *testing.T) {
	d, err := dualgraph.RandomGeometric(40, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(driver Driver) *Engine {
		procs := make([]Process, d.N())
		for u := range procs {
			procs[u] = &chattyProc{p: 0.4}
		}
		e, err := New(Config{Dual: d, Procs: procs, Sched: sched.Always{}, Seed: 1,
			Driver: driver, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, driver := range []Driver{DriverSequential, DriverWorkerPool} {
		e := mk(driver)
		e.Run(5)
		e.Close()
		e.Close()
	}
	// Close before any round (pool never started).
	mk(DriverWorkerPool).Close()
}

// BenchmarkPoolDispatch measures the fixed cost of one pool.run fan-out with
// a trivial body — the dispatch-plus-join overhead a sharded phase must
// amortise. parallelScatterMinTx is derived from this number: sharding pays
// off only when the sequential scatter work it splits exceeds roughly
// workers × this latency.
func BenchmarkPoolDispatch(b *testing.B) {
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := newWorkerPool(workers)
			defer p.stop()
			fn := func(w int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.run(workers, fn)
			}
		})
	}
}
