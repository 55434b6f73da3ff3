package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"lbcast"
	"lbcast/internal/stats"
)

// The sweep times the public banked stack, lbcast.NewRandomGeometric, at
// constant density: side max(4, √(n/4)) and r = 1.5 keep about four nodes
// per unit square, so Δ and Δ′, and with them the per-round work of each
// sender, stay flat while n grows. A round's cost that still grows with n
// is the cost of the idle nodes.
const (
	// sweepSenderEvery makes every 100th node a closed-loop client.
	sweepSenderEvery = 100
	// sweepNodeRounds is the node-round budget of a row; a row always runs
	// at least two LBAlg phases, so it covers preamble and body rounds.
	sweepNodeRounds = 10_000_000
)

// runSweep builds one network per n and driver and times its rounds: a
// sequential row, and a worker-pool row at GOMAXPROCS workers when
// GOMAXPROCS > 1.
func runSweep(ns []int, seed uint64) (*stats.Table, error) {
	workers := runtime.GOMAXPROCS(0)
	tbl := &stats.Table{
		Title: "scaling sweep: lbcast.Network rounds by n × driver",
		Columns: []string{"n", "driver", "workers", "build s", "heap B/node", "objects/node",
			"rounds", "ns/round", "preamble ns/round", "body ns/round", "allocs/round", "peak RSS MB"},
		Notes: []string{
			"lbcast.NewRandomGeometric at constant density (side max(4, √(n/4)), r = 1.5), random-½ scheduler, default ε",
			fmt.Sprintf("every %dth node re-broadcasts the round it is acked (closed loop); a row runs max(2 phases, %d/n) rounds", sweepSenderEvery, sweepNodeRounds),
			"build = the whole constructor (placement, grid index, pair scan, CSR, state bank, engine)",
			"heap B/node and objects/node = the live heap the built network retains: forced-GC readings after the constructor minus before, over n",
			"preamble and body ns/round split the timed rounds by kind: a phase's first T_s rounds run the seed-agreement preamble, the rest its body",
			"peak RSS is the process high-water mark when the row finished (monotone across rows)",
		},
	}
	drivers := []lbcast.Driver{lbcast.DriverSequential}
	if workers > 1 {
		drivers = append(drivers, lbcast.DriverWorkerPool)
	}
	for _, n := range ns {
		if n < 2 {
			return nil, fmt.Errorf("sweep n = %d too small", n)
		}
		side := math.Max(4, math.Sqrt(float64(n)/4))
		for _, d := range drivers {
			heap0 := forcedGCHeap()
			start := time.Now()
			nw, err := lbcast.NewRandomGeometric(n, side, side, 1.5, lbcast.WithSeed(seed), lbcast.WithDriver(d))
			if err != nil {
				return nil, err
			}
			build := time.Since(start)
			heap1 := forcedGCHeap()
			heapB := float64(int64(heap1.HeapAlloc)-int64(heap0.HeapAlloc)) / float64(n)
			objects := float64(int64(heap1.HeapObjects)-int64(heap0.HeapObjects)) / float64(n)
			lt, err := timeClosedLoop(nw)
			nw.Close()
			if err != nil {
				return nil, err
			}
			name, w := "sequential", "-"
			if d == lbcast.DriverWorkerPool {
				name, w = "workerpool", fmt.Sprint(workers)
			}
			tbl.AddRow(n, name, w, fmt.Sprintf("%.3f", build.Seconds()),
				fmt.Sprintf("%.0f", heapB), fmt.Sprintf("%.4f", objects), lt.rounds,
				lt.elapsed.Nanoseconds()/int64(lt.rounds), lt.preamble.Nanoseconds()/int64(lt.preambleRounds),
				lt.body.Nanoseconds()/int64(lt.rounds-lt.preambleRounds), lt.allocs/uint64(lt.rounds),
				fmt.Sprintf("%.0f", peakRSSMB()))
		}
	}
	return tbl, nil
}

// loopTiming is what timeClosedLoop measured: the row's rounds, the
// allocations and wall time over all of them, and the time spent in the
// preambleRounds rounds that run the seed-agreement preamble and in the
// body rounds. A row runs at least two phases, so it has rounds of both
// kinds.
type loopTiming struct {
	rounds, preambleRounds int
	allocs                 uint64
	elapsed                time.Duration
	preamble, body         time.Duration
}

// timeClosedLoop starts every sweepSenderEvery-th node broadcasting,
// re-broadcasting from each ack as the round benchmarks' closed loop does,
// and times the row's rounds, each round by its kind.
func timeClosedLoop(nw *lbcast.Network) (loopTiming, error) {
	var mu sync.Mutex // OnAck runs on worker goroutines under the pool
	var loopErr error
	nw.OnAck(func(node int, _ lbcast.MessageID) {
		if _, err := nw.Broadcast(node, node); err != nil {
			mu.Lock()
			loopErr = err
			mu.Unlock()
		}
	})
	for u := 0; u < nw.Size(); u += sweepSenderEvery {
		if _, err := nw.Broadcast(u, u); err != nil {
			return loopTiming{}, err
		}
	}
	sch := nw.Schedule()
	lt := loopTiming{rounds: max(2*sch.PhaseRounds, sweepNodeRounds/nw.Size())}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	last := start
	for r := 0; r < lt.rounds; r++ {
		nw.Step()
		now := time.Now()
		if (nw.Round()-1)%sch.PhaseRounds < sch.PreambleRounds {
			lt.preamble += now.Sub(last)
			lt.preambleRounds++
		} else {
			lt.body += now.Sub(last)
		}
		last = now
	}
	lt.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	lt.allocs = after.Mallocs - before.Mallocs
	mu.Lock()
	defer mu.Unlock()
	if loopErr != nil {
		return loopTiming{}, fmt.Errorf("sweep re-broadcast: %w", loopErr)
	}
	return lt, nil
}

// forcedGCHeap reads the heap statistics after forced collections, so they
// count live objects only; the second collection frees what the first left
// in sync.Pool victim caches.
func forcedGCHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
