// Command benchmark is the repository's end-to-end benchmark. It runs one
// seeded workload against the lbcast layers for a fixed host-time budget,
// checks the simulated outputs against a fingerprint, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload campus-ack --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with no
// instrumentation. With --trace 1 the same work is assembled from the
// layers' own constructors with timing wrappers around each layer's calls,
// and the result carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// gomaxprocs pins the scheduler width: two host CPUs, one sequential engine
// at a time, so the numbers measure the program rather than the host's
// scheduling of competing goroutines.
const gomaxprocs = 2

// endToEnd lists the metrics a --trace 0 result carries, in BENCHMARK.json
// order. Every workload measures each of them. wall_s and the host
// latencies are printed but left out: wall_s scales with the simulated work,
// which on matrix-small varies by tens of percent from seed to seed, and
// only campus-ack sees acks (see README.md).
var endToEnd = []string{"setup_s", "node_rounds_per_s", "live_mb"}

// perLayer lists the metrics a --trace 1 result carries. Workload-specific
// layer figures (world.*, sinr.*, geo.*, ...) are printed above the result
// line but are not part of it, since every result must carry the same set.
var perLayer = []string{
	"sim.step_us", "core.transmit_us", "core.receive_us", "sim.scatter_us",
	"sim.drain_us", "sched.us", "sched.calls", "sim.tx_per_round",
	"sim.deliveries_per_round", "sim.delivery_ratio", "sim.events_per_round",
	"sim.alloc_b_per_round", "dualgraph.build_s", "core.bank_s", "sim.new_s",
	"sim.trace_mb", "trace.overhead_us", "trace.unexplained_pct",
}

// outcome is what one workload run reports back to main.
type outcome struct {
	attempted, failed int
	// fp is the simulated-output fingerprint every repetition reproduced.
	fp uint64
	// problems lists failed output checks; any entry fails the run.
	problems []string
	metrics  *metricSet
}

// benchWorkload is one seeded input set and the two ways of running it.
type benchWorkload struct {
	name     string
	untraced func(seed uint64, budget time.Duration) (*outcome, error)
	traced   func(seed uint64, budget time.Duration) (*outcome, error)
}

var workloads = []benchWorkload{
	{name: "campus-ack", untraced: runCampus, traced: traceCampus},
	{name: "scale-1e5", untraced: runScale, traced: traceScale},
	{name: "matrix-small", untraced: runMatrix, traced: traceMatrix},
}

// recorded pins the simulated-output fingerprint of each workload at the
// default seed and at one held-out seed. Any change to what the layers
// compute for these inputs fails the run.
var recorded = map[string]map[uint64]uint64{
	"campus-ack":   {1: 0x9b8d5665ba88f67f, 97: 0x6e120e23a5533686},
	"scale-1e5":    {1: 0x3c8dc1fc0b7ada01, 97: 0x7226066fc5f7ed70},
	"matrix-small": {1: 0x368d68c325a8c1f6, 97: 0x4da332fea39727c6},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: campus-ack, scale-1e5 or matrix-small")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Int("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (campus-ack, scale-1e5, matrix-small)\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)

	budget := time.Duration(*secs) * time.Second
	runFn, names := w.untraced, endToEnd
	if *trace == 1 {
		runFn, names = w.traced, perLayer
	}
	out, err := runFn(*seed, budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	status := "no recorded value for this seed"
	if want, ok := recorded[w.name][*seed]; ok {
		status = "matches the recorded value"
		if want != out.fp {
			status = fmt.Sprintf("MISMATCH: recorded %#016x", want)
			out.problems = append(out.problems, "fingerprint differs from the recorded value")
		}
	}
	out.metrics.print(fmt.Sprintf("%s seed %d trace %d: fingerprint %#016x (%s); %d attempted, %d failed",
		w.name, *seed, *trace, out.fp, status, out.attempted, out.failed))
	for _, p := range out.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	metrics, err := out.metrics.pick(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
