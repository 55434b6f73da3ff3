package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lbcast/internal/exp"
	"lbcast/internal/profiling"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		sizeFlag = flag.String("size", "medium", "experiment scale: small|medium|full")
		seedFlag = flag.Uint64("seed", 1, "experiment seed (and the sweep's network seed)")
		listFlag = flag.Bool("list", false, "list experiment IDs and exit")
		sweep    = flag.Bool("sweep", false, "run the scaling sweep of the banked lbcast.Network instead of the experiments")
		sweepN   = flag.String("sweepn", "100,1000,10000,100000", "comma-separated network sizes for -sweep")
		abRef    = flag.String("ab", "", "A/B the working tree against this git ref on this machine (run from the repository root)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiments or the sweep to this file (not with -ab)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file when the experiments or the sweep end (not with -ab)")
	)
	flag.Usage = usage
	flag.Parse()

	if *listFlag {
		for _, e := range exp.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Claim)
		}
		return
	}

	if *abRef != "" {
		if *cpuProf != "" || *memProf != "" {
			// The A/B's measured work runs in child processes.
			fmt.Fprintln(os.Stderr, "-cpuprofile and -memprofile do not apply to -ab")
			os.Exit(2)
		}
		code, err := runAB(*abRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}

	var (
		ns   []int
		size exp.Size
		todo []exp.Experiment
		err  error
	)
	if *sweep {
		if ns, err = parseIntList(*sweepN, "-sweepn"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		if size, err = exp.ParseSize(*sizeFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if todo, err = selectExperiments(*expFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	code := 0
	if *sweep {
		code = sweepMain(ns, *seedFlag)
	} else {
		code = experimentsMain(todo, size, *seedFlag)
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// selectExperiments resolves the -exp flag: every experiment when it is
// empty, otherwise the listed IDs in order.
func selectExperiments(ids string) ([]exp.Experiment, error) {
	if ids == "" {
		return exp.All(), nil
	}
	var todo []exp.Experiment
	for _, id := range strings.Split(ids, ",") {
		e, ok := exp.ByID(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		todo = append(todo, e)
	}
	return todo, nil
}

// sweepMain runs the scaling sweep and renders its table; it returns the
// process exit code.
func sweepMain(ns []int, seed uint64) int {
	tbl, err := runSweep(ns, seed)
	if err == nil {
		err = tbl.Render(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// experimentsMain runs the experiments and renders their tables; it returns
// the process exit code, 1 when any experiment failed.
func experimentsMain(todo []exp.Experiment, size exp.Size, seed uint64) int {
	failed := 0
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(size, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Printf("# %s — %s (%.1fs)\n\n", res.ID, res.Claim, time.Since(start).Seconds())
		for _, tbl := range res.Tables {
			if err := tbl.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// usage renders the synopsis of every operating mode ahead of the flag
// list.
func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `lbbench reproduces the paper's quantitative claims and measures the
program's performance.

Modes:
  lbbench [-exp E-PROG,...] [-size small|medium|full] [-seed N]
      render the experiment tables (default: all experiments)
  lbbench -list
      list experiment IDs
  lbbench -sweep [-sweepn 1000,10000] [-seed N]
      scaling sweep of the banked lbcast.Network at constant density:
      build time, retained heap B/node and objects/node, ns/round,
      allocs/round and peak RSS per n, sequential and (when
      GOMAXPROCS > 1) on the worker pool
  lbbench -ab <git-ref>
      same-machine A/B of the working tree against <git-ref>: 10
      interleaved pairs of every BENCHMARK.json workload and the round
      micro-benchmarks, with a per-metric verdict; exits 1 when a metric
      regressed or a change run was wrong

The experiments and -sweep take -cpuprofile and -memprofile (read them
with go tool pprof); -ab does not, because its runs are child processes.

Flags:
`)
	flag.PrintDefaults()
}

// parseIntList parses a comma-separated integer list flag.
func parseIntList(s, flagName string) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, f, err)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("%s is empty", flagName)
	}
	return ns, nil
}
