package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lbcast/internal/exp"
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
		code, err := runAB(*abRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}

	if *sweep {
		ns, err := parseIntList(*sweepN, "-sweepn")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tbl, err := runSweep(ns, *seedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	size, err := exp.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var todo []exp.Experiment
	if *expFlag == "" {
		todo = exp.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	failed := 0
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(size, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Printf("# %s — %s (%.1fs)\n\n", res.ID, res.Claim, time.Since(start).Seconds())
		for _, tbl := range res.Tables {
			if err := tbl.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
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
      build time, ns/round, allocs/round and peak RSS per n, sequential
      and (when GOMAXPROCS > 1) on the worker pool
  lbbench -ab <git-ref>
      same-machine A/B of the working tree against <git-ref>: 10
      interleaved pairs of every BENCHMARK.json workload and the round
      micro-benchmarks, with a per-metric verdict; exits 1 when a metric
      regressed or a change run was wrong

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
