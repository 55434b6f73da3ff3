package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"lbcast/internal/chaos"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/exp"
	"lbcast/internal/profiling"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func main() {
	var (
		topo      = flag.String("topo", "cluster", "topology: cluster|geometric|twotier|line|grid")
		n         = flag.Int("n", 16, "node count (side² for grid; clusters×size for twotier)")
		r         = flag.Float64("r", 1.5, "geographic parameter r, finite and ≥ 1 (topologies geometric, line and grid; twotier uses max(r, 1.5); cluster ignores it)")
		eps       = flag.Float64("eps", 0.1, "error bound ε₁ ∈ (0, ½]")
		schedN    = flag.String("sched", "random", "link scheduler: never|always|random|periodic|antidecay")
		schedP    = flag.Float64("sched-p", 0.5, "inclusion probability for -sched random")
		phases    = flag.Int("phases", 0, "LBAlg phases to run (0: ⌈t_ack/phase⌉ + 1, the deadline by which a broadcast acks)")
		senders   = flag.Int("senders", 3, "number of saturated senders")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		traceFile = flag.String("trace", "", "write the execution trace as JSON to this file")
		expFlag   = flag.String("exp", "", "subsystem to run instead of the single-configuration report: comparison|churn|chaos|load")
		sizeFlag  = flag.String("size", "small", "scale for -exp runs: small|medium|full")
		outFile   = flag.String("out", "", "JSON output path for -exp runs (default <exp>.json)")
		reproFile = flag.String("repro", "", "with -exp chaos: replay this lbcast-chaos/v1 scenario instead of searching")
		policies  = flag.String("policies", "", "comma-separated policy names for -exp comparison|churn|load (default: the experiment's own set); \"list\" prints the registry and exits")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Usage = usage
	flag.Parse()
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	switch {
	case *policies == "list":
		listPolicies(os.Stdout)
	case *expFlag != "":
		err = runExp(*expFlag, *sizeFlag, *seed, *outFile, *reproFile, splitPolicies(*policies))
	default:
		err = run(*topo, *n, *r, *eps, *schedN, *schedP, *phases, *senders, *seed, *traceFile)
	}
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

// usage renders the synopsis of every operating mode ahead of the flag
// list, so `lbsim -help` documents the -exp subsystems and their output
// schemas (the lbbench -help pattern).
func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `lbsim runs the local broadcast layer and its experiment subsystems.

Modes:
  lbsim [-topo T] [-n N] [-sched S] [-phases P] [-senders K] [-seed N] [-trace out.json]
      single-configuration run: LBAlg over the chosen topology/scheduler,
      judged online by lbspec.Monitor, report on stdout (exit 1 on any
      deterministic violation); -trace writes the execution trace
      (lbcast-trace/v1)
  lbsim -exp comparison [-size small|medium|full] [-seed N] [-policies a,b] [-out comparison.json]
      E-COMPARE matrix: every registered policy (or the -policies subset)
      on identical cloned topologies across n (lbcast-comparison/v2)
  lbsim -exp churn [-size ...] [-seed N] [-policies a,b] [-out churn.json]
      E-CHURN matrix: the same policies degrading under identical Poisson
      fault schedules (lbcast-churn/v2)
  lbsim -exp chaos [-size ...] [-seed N] [-out chaos.json]
      E-CHAOS: bounded randomized scenario search with the online invariant
      monitor attached, plus a seeded-fault shrinking canary
      (lbcast-chaos-report/v1; scenarios embed lbcast-chaos/v1). A real
      violation writes its minimized scenario to repro.json and exits 1
  lbsim -exp chaos -repro repro.json
      deterministically replay a minimized lbcast-chaos/v1 scenario and
      print its monitor verdict
  lbsim -exp load [-size ...] [-seed N] [-policies a,b] [-out load.json]
      E-LOAD matrix: the open-loop traffic engine sweeping offered load
      across the selected policies on identical arrival schedules, plus
      the preset scenarios (lbcast-load/v2)
  lbsim -policies list
      print the policy registry: every name -policies accepts, with a
      one-line description

Every mode takes -cpuprofile and -memprofile (read them with go tool pprof).

Flags:
`)
	flag.PrintDefaults()
}

// expModes lists the valid -exp subsystem names. The unknown-experiment
// error enumerates this list (and main_test.go pins that every mode
// appears in it), so keep it in sync with runExp's dispatch switch.
var expModes = []string{"chaos", "churn", "comparison", "load"}

// splitPolicies turns the -policies flag value into a selection for the
// world registry; empty means "use the experiment's default set".
func splitPolicies(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	names := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	return names
}

// listPolicies renders the policy registry: every name the -policies flag
// accepts, with its one-line description.
func listPolicies(w io.Writer) {
	fmt.Fprintln(w, "registered policies (usable with -exp comparison|churn|load):")
	for _, p := range world.All() {
		fmt.Fprintf(w, "  %-20s %s\n", p.Name, p.Description)
	}
}

// runExp dispatches the -exp subsystems: the comparison matrix (LBAlg vs
// the SINR local broadcast layer vs the GHLN contention baselines), the
// churn matrix (the same contenders degrading under identical Poisson
// fault schedules), the chaos search (randomized scenarios with the
// online monitor attached), and the open-loop load matrix (the traffic
// engine's knee curves). Each renders a table and writes machine-readable
// JSON. A non-nil policies selection replaces the experiment's default
// contender set; unknown names fail with the registered set spelled out.
func runExp(name, sizeName string, seed uint64, outFile, reproFile string, policies []string) error {
	if reproFile != "" {
		if name != "chaos" {
			return fmt.Errorf("-repro only applies to -exp chaos")
		}
		return replayRepro(reproFile)
	}
	size, err := exp.ParseSize(sizeName)
	if err != nil {
		return err
	}
	var (
		tbl      *stats.Table
		writeFn  func(io.Writer) error
		rowCount int
		violated *chaos.Scenario
	)
	switch name {
	case "comparison":
		rep, err := exp.RunComparisonPolicies(size, seed, policies, 0)
		if err != nil {
			return err
		}
		tbl, writeFn, rowCount = exp.ComparisonTable(rep), rep.WriteJSON, len(rep.Rows)
		if outFile == "" {
			outFile = "comparison.json"
		}
	case "churn":
		rep, err := exp.RunChurnPolicies(size, seed, policies, 0)
		if err != nil {
			return err
		}
		tbl, writeFn, rowCount = exp.ChurnTable(rep), rep.WriteJSON, len(rep.Rows)
		if outFile == "" {
			outFile = "churn.json"
		}
	case "chaos":
		if policies != nil {
			return fmt.Errorf("-policies does not apply to -exp chaos")
		}
		rep, err := exp.RunChaos(size, seed)
		if err != nil {
			return err
		}
		tbl, writeFn, rowCount = exp.ChaosTable(rep), rep.WriteJSON, rep.Trials
		violated = rep.Violation
		if outFile == "" {
			outFile = "chaos.json"
		}
	case "load":
		rep, err := exp.RunLoadPolicies(size, seed, policies, 0)
		if err != nil {
			return err
		}
		tbl, writeFn, rowCount = exp.LoadTable(rep), rep.WriteJSON, len(rep.Rows)+len(rep.Scenarios)
		if outFile == "" {
			outFile = "load.json"
		}
	default:
		return fmt.Errorf("unknown -exp %q (valid experiments: %s)", name, strings.Join(expModes, ", "))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	f, err := os.Create(outFile)
	if err != nil {
		return err
	}
	if err := writeFn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s table written to %s (%d rows)\n", name, outFile, rowCount)
	if violated != nil {
		if err := violated.WriteFile("repro.json"); err != nil {
			return err
		}
		return fmt.Errorf("chaos search found a real invariant violation; minimized scenario written to repro.json (replay: lbsim -exp chaos -repro repro.json)")
	}
	return nil
}

// replayRepro deterministically re-executes a minimized lbcast-chaos/v1
// scenario and prints the monitor verdict.
func replayRepro(path string) error {
	sc, err := chaos.ReadScenarioFile(path)
	if err != nil {
		return err
	}
	res, err := chaos.Run(sc, chaos.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("scenario: seed=%d n=%d phases=%d model=%s sched=%s senders=%d churn-events=%d\n",
		sc.Seed, sc.N, sc.Phases, sc.Model, sc.Sched, sc.Senders, planEventCount(sc))
	if sc.Fault != nil {
		fmt.Printf("seeded fault: %s @ node %d\n", sc.Fault.Kind, sc.Fault.Node)
	}
	fmt.Printf("ran %d/%d rounds (phase length %d)\n", res.Rounds, res.Planned, res.PhaseLen)
	if res.Total == 0 {
		fmt.Println("verdict: clean — the scenario no longer violates")
		return nil
	}
	fmt.Printf("verdict: %d violation(s)\n", res.Total)
	for i, v := range res.Violations {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", res.Total-i)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	return nil
}

// planEventCount is a nil-safe lifecycle-event count.
func planEventCount(sc *chaos.Scenario) int {
	if sc.Plan == nil {
		return 0
	}
	return len(sc.Plan.Events)
}

func run(topo string, n int, r, eps float64, schedName string, schedP float64, phases, senders int, seed uint64, traceFile string) error {
	if senders < 0 {
		return fmt.Errorf("-senders %d is negative", senders)
	}
	if !(r >= 1) || math.IsInf(r, 1) {
		return fmt.Errorf("-r %v: want a finite r ≥ 1", r)
	}
	rng := xrand.New(seed)
	var (
		d   *dualgraph.Dual
		err error
	)
	switch topo {
	case "cluster":
		d, err = dualgraph.SingleHopCluster(n, 1, rng)
	case "geometric":
		side := 1 + float64(n)/12
		d, err = dualgraph.RandomGeometric(n, side, side, r, dualgraph.GreyUnreliable, rng)
	case "twotier":
		k := 3
		d, err = dualgraph.TwoTierClusters(k, (n+k-1)/k, maxf(r, 1.5), rng)
	case "line":
		d, err = dualgraph.Line(n, 1, r, rng)
	case "grid":
		side := 2
		for side*side < n {
			side++
		}
		d, err = dualgraph.GridLattice(side, 1, r, rng)
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}
	if err != nil {
		return err
	}

	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), maxf(d.R, 1), eps)
	if err != nil {
		return err
	}
	if phases == 0 {
		// Network.RunUntilAck's deadline: t_ack, plus the phase a broadcast
		// may wait for its first phase to start.
		phases = (p.TAckBound()+p.PhaseLen()-1)/p.PhaseLen() + 1
	}
	if maxPhases := core.MaxRounds / p.PhaseLen(); phases < 1 || phases > maxPhases {
		return fmt.Errorf("-phases %d outside [1, %d] for %d-round phases", phases, maxPhases, p.PhaseLen())
	}

	var linkSched sim.LinkScheduler
	switch schedName {
	case "never":
		linkSched = sched.Never{}
	case "always":
		linkSched = sched.Always{}
	case "random":
		if !(schedP >= 0 && schedP <= 1) {
			return fmt.Errorf("-sched-p %v outside [0, 1]", schedP)
		}
		linkSched = sched.NewRandom(schedP, seed)
	case "periodic":
		linkSched = sched.Periodic{Period: 8, OnRounds: 3}
	case "antidecay":
		linkSched = sched.AntiDecay{CycleLen: p.LogDelta}
	default:
		return fmt.Errorf("unknown scheduler %q", schedName)
	}

	if senders > d.N() {
		senders = d.N()
	}
	senderIDs := make([]int, senders)
	for i := range senderIDs {
		senderIDs[i] = i
	}
	// The monitor judges the run as it goes; it only reads the trace it
	// shares with the engine, so -trace still writes every event.
	net, err := world.NewLBNetwork(sim.Config{Dual: d, Sched: linkSched, Seed: seed}, p,
		func(svcs []core.Service) (sim.Environment, error) {
			return core.NewSaturatingEnv(svcs, senderIDs), nil
		}, true)
	if err != nil {
		return err
	}
	tr, mon := net.Engine.Trace(), net.Mon
	rounds := phases * p.PhaseLen()
	net.Engine.Run(rounds)
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events)\n", traceFile, tr.Len())
	}
	rep := mon.Report()

	fmt.Printf("configuration: topo=%s n=%d Δ=%d Δ'=%d r=%v ε=%v sched=%s seed=%d\n",
		topo, d.N(), d.Delta(), d.DeltaPrime(), d.R, eps, schedName, seed)
	fmt.Printf("schedule: Ts=%d Tprog=%d phase=%d t_prog=%d Tack=%d phases t_ack=%d rounds\n",
		p.Ts, p.Tprog, p.PhaseLen(), p.TProgBound(), p.Tack, p.TAckBound())
	fmt.Printf("ran %d rounds (%d phases)\n\n", rounds, phases)

	tbl := &stats.Table{Title: "specification report", Columns: []string{"metric", "value"}}
	tbl.AddRow("deterministic violations", mon.TotalViolations())
	tbl.AddRow("broadcasts completed", rep.Broadcasts)
	tbl.AddRow("reliability", stats.FormatRate(rep.ReliableSuccesses, rep.Broadcasts))
	tbl.AddRow("progress", stats.FormatRate(rep.ProgressSuccesses, rep.ProgressOpportunities))
	if len(rep.AckLatencies) > 0 {
		tbl.AddRow("ack latency p50/p95 (rounds)", fmt.Sprintf("%.0f / %.0f",
			stats.QuantileInts(rep.AckLatencies, 0.5), stats.QuantileInts(rep.AckLatencies, 0.95)))
	}
	tbl.AddRow("transmissions", tr.Transmissions)
	tbl.AddRow("deliveries", tr.Deliveries)
	tbl.AddRow("collisions", tr.Collisions)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return rep.Err()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
