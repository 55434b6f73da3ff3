package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lbcast/internal/stats"
)

// The A/B runs abPairs pairs of (parent, change) runs. Pair i uses input
// seed abFirstSeed+i, and even pairs run the parent first, so a slowdown of
// the host that lasts minutes lands on both sides. The benchmark's own
// pinned seeds (1 and 97) stay held out.
const (
	abPairs     = 10
	abFirstSeed = 1001
	// abWinShare is the share of pairs the change must win, ties counting
	// for neither side, before a metric counts as better.
	abWinShare = 0.9
	// microBound is the relative slowdown a micro-benchmark may show before
	// it counts as regressed: the 1.20× limit of the absolute ns/op and
	// allocs/op gate the A/B replaced.
	microBound = 0.20
)

// microBench is one `go test` benchmark the A/B runs from a compiled test
// binary, at the benchtime its old absolute gate used.
type microBench struct{ pkg, name, benchtime string }

var microBenches = []microBench{
	{".", "BenchmarkNetworkRound", "0.5s"},
	{".", "BenchmarkGeometricConstruction", "0.5s"},
	{".", "BenchmarkSINRRound", "0.5s"},
	{"internal/core", "BenchmarkLBAlgRound", "0.5s"},
	{"internal/churn", "BenchmarkChurnRound", "2000x"},
	{"internal/workload", "BenchmarkWorkloadRound", "2000x"},
	{"internal/dualgraph", "BenchmarkIndexPatch", "0.5s"},
	{"internal/lbspec", "BenchmarkMonitoredRound", "2000x"},
	{"internal/exp", "BenchmarkWorldComparisonPoint", "10x"},
}

// microMetrics are the two readings of every micro-benchmark.
var microMetrics = []metricSpec{
	{Name: "ns/op", Unit: "ns", Better: "lower", Bound: microBound},
	{Name: "allocs/op", Unit: "count", Better: "lower", Bound: microBound},
}

// benchSpec is the part of BENCHMARK.json the A/B reads.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: which direction is better, and the
// relative worsening (0.25 = 25%) beyond which the change regressed it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Command) == 0 || s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: needs command, run_seconds ≥ 1, workloads and end_to_end", path)
	}
	for _, m := range s.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %q needs better lower|higher and a bound > 0", path, m.Name)
		}
	}
	return &s, nil
}

// benchResult is the JSON line a benchmark run prints last.
type benchResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseBenchResult decodes the last non-empty line of a benchmark run's
// standard output.
func parseBenchResult(out []byte) (*benchResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r benchResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

// problem describes why a change run fails the A/B on its own, whatever its
// metrics: a wrong output or a failed operation.
func (r *benchResult) problem() string {
	switch {
	case !r.Correct:
		return "correct: false"
	case r.Failed > 0:
		return fmt.Sprintf("failed %d of %d", r.Failed, r.Attempted)
	}
	return ""
}

// series is one (workload, metric) row of the A/B: the parent's and the
// change's reading in each pair, in pair order.
type series struct {
	workload       string
	metric         metricSpec
	parent, change []float64
}

// Verdicts of one series.
const (
	verdictSame       = "no change"
	verdictBetter     = "better"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// judgement is a series' summary and verdict.
type judgement struct {
	parentMedian, changeMedian float64
	// spread is the distance between the parent's quartiles.
	spread float64
	// wins counts the pairs the change read better in.
	wins    int
	verdict string
}

// judge applies the no-regression and gain rules to a series:
//   - unresolved: the parent's quartile spread exceeds the bound, unless
//     every change run reads better than every parent run;
//   - regressed: otherwise, the change's median is worse than the
//     parent's by more than the bound;
//   - better: the change wins abWinShare of the pairs and the medians
//     differ, in its favour, by more than the spread;
//   - no change: anything else.
func judge(s series) judgement {
	sign := 1.0 // +1 when lower is better
	if s.metric.Better == "higher" {
		sign = -1
	}
	j := judgement{
		parentMedian: stats.Quantile(s.parent, 0.5),
		changeMedian: stats.Quantile(s.change, 0.5),
		spread:       stats.Quantile(s.parent, 0.75) - stats.Quantile(s.parent, 0.25),
	}
	for i := range s.parent {
		if sign*(s.change[i]-s.parent[i]) < 0 {
			j.wins++
		}
	}
	allBetter := true
	for _, c := range s.change {
		for _, p := range s.parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	worse := relative(sign*(j.changeMedian-j.parentMedian), j.parentMedian)
	switch {
	case relative(j.spread, j.parentMedian) > s.metric.Bound && !allBetter:
		j.verdict = verdictUnresolved
	case worse > s.metric.Bound:
		j.verdict = verdictRegressed
	case float64(j.wins) >= abWinShare*float64(len(s.parent)) &&
		sign*(j.parentMedian-j.changeMedian) > j.spread:
		j.verdict = verdictBetter
	default:
		j.verdict = verdictSame
	}
	return j
}

// relative returns d as a fraction of |base|; a non-zero d against a zero
// base (an allocation count leaving 0) is infinitely large.
func relative(d, base float64) float64 {
	if d == 0 {
		return 0
	}
	if base == 0 {
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(base)
}

// abSide is one tree of the A/B.
type abSide struct {
	name string // "parent" or "change"
	dir  string // tree root
	bins string // directory of its micro-benchmark test binaries
}

// runAB measures the working tree against ref on this machine and prints
// the per-metric report. It returns the process exit code: 1 when a metric
// regressed or a change run was wrong or failed an operation.
func runAB(ref string) (int, error) {
	spec, err := readBenchSpec("BENCHMARK.json")
	if err != nil {
		return 2, fmt.Errorf("lbbench -ab runs from the repository root: %w", err)
	}
	commit, err := gitOutput("rev-parse", "--verify", "--quiet", ref+"^{commit}")
	if err != nil {
		return 2, fmt.Errorf("lbbench -ab: %q is not a commit", ref)
	}
	root, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	work := filepath.Join(root, ".bench_build", "ab")
	parent := abSide{name: "parent", dir: filepath.Join(work, "parent"), bins: filepath.Join(work, "bin", "parent")}
	change := abSide{name: "change", dir: root, bins: filepath.Join(work, "bin", "change")}
	removeWorktree(parent.dir)
	if err := os.RemoveAll(filepath.Join(work, "bin")); err != nil {
		return 2, err
	}
	if _, err := gitOutput("worktree", "add", "--detach", parent.dir, commit); err != nil {
		return 2, err
	}
	defer removeWorktree(parent.dir)
	head, err := gitOutput("rev-parse", "HEAD")
	if err != nil {
		return 2, err
	}
	status, err := gitOutput("status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return 2, err
	}
	fmt.Print(provenance(ref, commit, head, status != "", readCPUModel()))
	fmt.Printf("%d pairs, seeds %d–%d, %d s per workload run\n\n",
		abPairs, abFirstSeed, abFirstSeed+abPairs-1, spec.RunSeconds)

	for _, side := range []abSide{parent, change} {
		if err := buildMicro(side); err != nil {
			return 2, err
		}
	}
	rep := newABReport(ref, spec)
	start := time.Now()
	for i := 0; i < abPairs; i++ {
		seed := uint64(abFirstSeed + i)
		order := []abSide{parent, change}
		if i%2 == 1 {
			order[0], order[1] = change, parent
		}
		for _, w := range spec.Workloads {
			for _, side := range order {
				r, err := runWorkload(side, spec, w.Name, seed)
				if err != nil {
					return 2, fmt.Errorf("%s run of %s at seed %d: %w", side.name, w.Name, seed, err)
				}
				if err := rep.addRun(side.name, w.Name, seed, r); err != nil {
					return 2, err
				}
			}
		}
		for _, b := range microBenches {
			for _, side := range order {
				ns, allocs, err := runMicro(side, b)
				if err != nil {
					return 2, fmt.Errorf("%s run of %s: %w", side.name, b.name, err)
				}
				rep.add(side.name, b.name, "ns/op", ns)
				rep.add(side.name, b.name, "allocs/op", allocs)
			}
		}
		fmt.Fprintf(os.Stderr, "A/B: pair %d of %d done after %s\n", i+1, abPairs, time.Since(start).Round(time.Second))
	}
	pass, err := rep.render(os.Stdout)
	if err != nil {
		return 2, err
	}
	if !pass {
		return 1, nil
	}
	return 0, nil
}

// abReport collects the readings of an A/B and the change runs that failed.
type abReport struct {
	ref      string
	spec     *benchSpec
	all      []*series
	byKey    map[string]*series
	problems []string
}

// newABReport lays out one series per (workload, end-to-end metric) and per
// (micro-benchmark, reading), in that order.
func newABReport(ref string, spec *benchSpec) *abReport {
	r := &abReport{ref: ref, spec: spec, byKey: map[string]*series{}}
	track := func(workload string, m metricSpec) {
		s := &series{workload: workload, metric: m}
		r.all = append(r.all, s)
		r.byKey[workload+"\x00"+m.Name] = s
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			track(w.Name, m)
		}
	}
	for _, b := range microBenches {
		for _, m := range microMetrics {
			track(b.name, m)
		}
	}
	return r
}

// add records one reading of side ("parent" or "change").
func (r *abReport) add(side, workload, metric string, v float64) {
	s := r.byKey[workload+"\x00"+metric]
	if side == "parent" {
		s.parent = append(s.parent, v)
	} else {
		s.change = append(s.change, v)
	}
}

// addRun records a workload run's end-to-end metrics, and its problem when
// it is a change run that was wrong or failed an operation.
func (r *abReport) addRun(side, workload string, seed uint64, res *benchResult) error {
	if p := res.problem(); p != "" {
		fmt.Fprintf(os.Stderr, "%s run of %s at seed %d: %s\n", side, workload, seed, p)
		if side == "change" {
			r.problems = append(r.problems, fmt.Sprintf("%s seed %d: %s", workload, seed, p))
		}
	}
	for _, m := range r.spec.EndToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s run of %s at seed %d reports no %s", side, workload, seed, m.Name)
		}
		r.add(side, workload, m.Name, v.Value)
	}
	return nil
}

// render prints the per-series table and the failed change runs, and
// reports whether the A/B passed: no series regressed and no change run
// failed.
func (r *abReport) render(w io.Writer) (pass bool, err error) {
	tbl := &stats.Table{
		Title:   "same-machine A/B: parent " + r.ref + " vs working tree",
		Columns: []string{"workload", "metric", "unit", "parent median", "change median", "parent spread", "change better in", "verdict"},
		Notes: []string{
			"spread is the distance between the parent's quartiles, as a share of its median",
			"REGRESSED: median worse by more than the metric's bound, spread within it; unresolved: spread wider than the bound, unless every change run beats every parent run",
			fmt.Sprintf("better: the change wins ≥ %.0f%% of pairs and the medians differ by more than the spread", 100*abWinShare),
		},
	}
	regressed := 0
	for _, s := range r.all {
		j := judge(*s)
		if j.verdict == verdictRegressed {
			regressed++
		}
		tbl.AddRow(s.workload, s.metric.Name, s.metric.Unit, fmt.Sprintf("%.4g", j.parentMedian),
			fmt.Sprintf("%.4g", j.changeMedian), fmt.Sprintf("%.1f%%", 100*relative(j.spread, j.parentMedian)),
			fmt.Sprintf("%d of %d", j.wins, len(s.parent)), j.verdict)
	}
	if err := tbl.Render(w); err != nil {
		return false, err
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "change run failed:", p)
	}
	if regressed > 0 || len(r.problems) > 0 {
		fmt.Fprintf(w, "A/B FAILED: %d regressed metric(s), %d failed change run(s)\n", regressed, len(r.problems))
		return false, nil
	}
	fmt.Fprintln(w, "A/B passed: no regressed metric, every change run correct with no failed operation")
	return true, nil
}

// abEnv is the environment of every build and run: the toolchain on the
// path and no module downloads, as benchmark/run.sh sets.
func abEnv() []string {
	return append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-mod=readonly")
}

// runWorkload runs one end-to-end benchmark workload in a tree.
func runWorkload(side abSide, spec *benchSpec, workload string, seed uint64) (*benchResult, error) {
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)], "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir, cmd.Env, cmd.Stderr = side.dir, abEnv(), os.Stderr
	out, runErr := cmd.Output()
	r, err := parseBenchResult(out)
	if err != nil {
		// A run that prints its result line exits non-zero when the result
		// is wrong; that is reported through the result, not as an error.
		return nil, errors.Join(err, runErr)
	}
	fmt.Fprintf(os.Stderr, "%s %s seed %d: correct %v, failed %d\n", side.name, workload, seed, r.Correct, r.Failed)
	return r, nil
}

// buildMicro compiles the test binary of every micro-benchmark package.
func buildMicro(side abSide) error {
	built := map[string]bool{}
	for _, b := range microBenches {
		if built[b.pkg] {
			continue
		}
		built[b.pkg] = true
		cmd := exec.Command("go", "test", "-c", "-o", microBinary(side, b), "./"+b.pkg)
		cmd.Dir, cmd.Env, cmd.Stdout, cmd.Stderr = side.dir, abEnv(), os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s test binary for %s: %w", side.name, b.pkg, err)
		}
	}
	return nil
}

func microBinary(side abSide, b microBench) string {
	name := strings.ReplaceAll(filepath.Clean(b.pkg), "/", "_")
	if name == "." {
		name = "root"
	}
	return filepath.Join(side.bins, name+".test")
}

// runMicro runs one micro-benchmark from its package directory and returns
// its ns/op and allocs/op.
func runMicro(side abSide, b microBench) (nsPerOp, allocsPerOp float64, err error) {
	cmd := exec.Command(microBinary(side, b), "-test.run", "^$", "-test.bench", "^"+b.name+"$",
		"-test.benchtime", b.benchtime, "-test.benchmem", "-test.count", "1", "-test.timeout", "10m")
	cmd.Dir, cmd.Env, cmd.Stderr = filepath.Join(side.dir, b.pkg), abEnv(), os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, err
	}
	return parseGoBench(out, b.name)
}

// parseGoBench reads ns/op and allocs/op of the named benchmark from
// `go test -bench -benchmem` output.
func parseGoBench(out []byte, name string) (nsPerOp, allocsPerOp float64, err error) {
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || (f[0] != name && !strings.HasPrefix(f[0], name+"-")) {
			continue
		}
		got := map[string]float64{}
		for k := 2; k+1 < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: bad value %q", name, f[k])
			}
			got[f[k+1]] = v
		}
		ns, okNs := got["ns/op"]
		allocs, okAllocs := got["allocs/op"]
		if !okNs || !okAllocs {
			return 0, 0, fmt.Errorf("%s: line %q lacks ns/op or allocs/op", name, line)
		}
		return ns, allocs, nil
	}
	return 0, 0, fmt.Errorf("no result line for %s", name)
}

// provenance renders the lines that open an A/B report: the two revisions
// compared, the toolchain and the machine that produced the numbers.
func provenance(ref, parentCommit, head string, dirty bool, cpu string) string {
	change := "working tree at " + short(head)
	if dirty {
		change += " with uncommitted changes"
	}
	return fmt.Sprintf("A/B: parent %s (%s) against the %s\nmachine: %s %s/%s, GOMAXPROCS %d of %d CPUs, %s\n",
		ref, short(parentCommit), change, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}

// short abbreviates a commit hash to 12 digits.
func short(commit string) string { return commit[:min(12, len(commit))] }

// readCPUModel returns the host's CPU model as /proc/cpuinfo names it, or
// "CPU model unknown" where that file is absent or names none.
func readCPUModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "CPU model unknown"
	}
	return cpuModel(string(b))
}

// cpuModel returns the first "model name" of a /proc/cpuinfo text.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			if v = strings.TrimSpace(v); v != "" {
				return v
			}
		}
	}
	return "CPU model unknown"
}

// gitOutput runs git and returns its trimmed standard output.
func gitOutput(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// removeWorktree deletes the parent's worktree, left over from an
// interrupted run or done with, and forgets any registration whose
// directory is gone.
func removeWorktree(dir string) {
	if _, err := os.Stat(dir); err == nil {
		if _, err := gitOutput("worktree", "remove", "--force", dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			_ = os.RemoveAll(dir) // best effort; prune below forgets the entry either way
		}
	}
	if _, err := gitOutput("worktree", "prune"); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
