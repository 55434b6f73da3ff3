package main

// matrix-small: the E-COMPARE (closed loop, saturating senders), E-LOAD
// (open loop, Poisson arrivals) and E-CHURN matrices at -size small with
// their default policy sets, run through exp with one worker as `lbsim -exp`
// runs them. It is the only workload on the per-node core.Service path
// (LBAlg with seedagree, the contention and decay baselines), and the only
// one exercising the SINR reception model, the environment hooks
// (SaturatingEnv, workload.Traffic, churn.Injector) and world.Summarize. n is
// 48–128, so fixed per-round overhead dominates, and none of it touches the
// state bank the two API workloads live in.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/exp"
	"lbcast/internal/workload"
	"lbcast/internal/world"
)

// The exp matrices' small-size settings, mirrored by the traced run.
const (
	matrixEps = 0.2
	loadN     = 48
	churnN    = 48
	// matrixSetups is the number of set-up samples before each
	// repetition, and buildsPerSample the matrix builds each sample times.
	matrixSetups    = 7
	buildsPerSample = 6
)

var (
	compareSizes = []int{48, 128}
	loadLevels   = []float64{0.25, 0.5, 1, 2, 4}
	churnLoads   = []float64{0, 0.25, 1, 4}
	// matrixTrio is the default policy selection of E-LOAD and E-CHURN.
	matrixTrio = []string{"lbalg", "contention-uniform", "decay"}
)

// matrixRows is the simulated output of one matrix run: every row of the
// three reports.
type matrixRows struct {
	Compare   []exp.ComparisonRow `json:"compare"`
	Load      []exp.LoadRow       `json:"load"`
	Scenarios []exp.ScenarioRow   `json:"scenarios"`
	Churn     []exp.ChurnRow      `json:"churn"`
}

// expected returns the row count of each experiment, so an experiment that
// errors counts all its rows as failed.
func expectedRows() (compare, load, churnRows int) {
	return len(compareSizes) * len(world.Names()),
		len(loadLevels)*len(matrixTrio) + len(workload.ScenarioNames()),
		len(churnLoads) * len(matrixTrio)
}

// fingerprint renders every row as JSON: any change to a simulated figure,
// however small, changes it.
func (m *matrixRows) fingerprint() (uint64, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return 0, err
	}
	f := newFingerprint()
	f.bytes(b)
	return f.sum(), nil
}

// nodeRounds is the simulated work: Σ n · rounds over every row.
func (m *matrixRows) nodeRounds() int {
	s := 0
	for _, r := range m.Compare {
		s += r.N * r.Rounds
	}
	for _, r := range m.Load {
		s += r.N * r.Rounds
	}
	for _, r := range m.Scenarios {
		s += r.N * r.Rounds
	}
	for _, r := range m.Churn {
		s += r.N * r.Rounds
	}
	return s
}

// runMatrixReports runs the three experiments untraced, returning their rows
// and the number of rows whose experiment errored.
func runMatrixReports(seed uint64) (*matrixRows, int) {
	nc, nl, nch := expectedRows()
	rows, failed := &matrixRows{}, 0
	if rep, err := exp.RunComparisonPolicies(exp.SizeSmall, seed, nil, 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: E-COMPARE:", err)
		failed += nc
	} else {
		rows.Compare = rep.Rows
	}
	if rep, err := exp.RunLoadPolicies(exp.SizeSmall, seed, nil, 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: E-LOAD:", err)
		failed += nl
	} else {
		rows.Load, rows.Scenarios = rep.Rows, rep.Scenarios
	}
	if rep, err := exp.RunChurnPolicies(exp.SizeSmall, seed, nil, 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: E-CHURN:", err)
		failed += nch
	} else {
		rows.Churn = rep.Rows
	}
	return rows, failed
}

// matrixBuild is what the three matrices construct before their engines
// run: every sweep topology and World (one instance per policy), each churn
// engine's private topology clone, and every node's protocol service. It
// leaves out the arrival and fault plans, whose length follows each seed's
// ack windows: timing them would measure how much work a seed asks for, not
// how fast the program builds it. The traced run checks that its mirror of
// exp builds exactly as many of each (buildCounts).
type matrixBuild struct {
	worlds   []*world.World
	clones   []*dualgraph.Dual
	services [][]core.Service
}

// buildCounts tallies a matrix build: sweep topologies, Worlds, topology
// clones and per-node services.
type buildCounts struct{ topologies, worlds, clones, services int }

func (b *matrixBuild) counts() buildCounts {
	c := buildCounts{worlds: len(b.worlds), clones: len(b.clones)}
	var last *world.Topology
	for _, w := range b.worlds {
		if w.Top != last {
			c.topologies++
			last = w.Top
		}
	}
	for _, s := range b.services {
		c.services += len(s)
	}
	return c
}

// buildMatrix builds seed's matrixBuild in exp's order: E-COMPARE's sizes
// over every policy, E-LOAD's shared topology with one World per load level
// and one for the scenario presets (served by the fastest policy), and
// E-CHURN's topology per load with a clone per policy.
func buildMatrix(seed uint64) (*matrixBuild, error) {
	all, err := world.Select(world.Names())
	if err != nil {
		return nil, err
	}
	trio, err := world.Select(matrixTrio)
	if err != nil {
		return nil, err
	}
	b := &matrixBuild{}
	addWorld := func(top *world.Topology, policies []world.Policy) (*world.World, error) {
		w, err := world.New(top, policies, 1)
		if err == nil {
			b.worlds = append(b.worlds, w)
		}
		return w, err
	}
	addServices := func(inst *world.Instance, n int) {
		svcs := make([]core.Service, n)
		for u := range svcs {
			svcs[u] = inst.NewService(u)
		}
		b.services = append(b.services, svcs)
	}
	for _, n := range compareSizes {
		top, err := world.NewSweepTopology(n, seed, matrixEps)
		if err != nil {
			return nil, err
		}
		w, err := addWorld(top, all)
		if err != nil {
			return nil, err
		}
		for _, inst := range w.Instances {
			addServices(inst, n)
		}
	}
	top, err := world.NewSweepTopology(loadN, seed, matrixEps)
	if err != nil {
		return nil, err
	}
	for range loadLevels {
		w, err := addWorld(top, trio)
		if err != nil {
			return nil, err
		}
		for _, inst := range w.Instances {
			addServices(inst, loadN)
		}
	}
	w, err := addWorld(top, trio)
	if err != nil {
		return nil, err
	}
	for range workload.ScenarioNames() {
		addServices(w.Instances[fastest(w)], loadN)
	}
	for range churnLoads {
		top, err := world.NewSweepTopology(churnN, seed, matrixEps)
		if err != nil {
			return nil, err
		}
		w, err := addWorld(top, trio)
		if err != nil {
			return nil, err
		}
		for _, inst := range w.Instances {
			d, err := top.Clone()
			if err != nil {
				return nil, err
			}
			b.clones = append(b.clones, d)
			addServices(inst, churnN)
		}
	}
	return b, nil
}

// fastest returns the index of the World's policy with the shortest ack
// window, the one E-LOAD's scenario presets run against.
func fastest(w *world.World) int {
	fi := 0
	for i, inst := range w.Instances {
		if inst.AckWindow < w.Instances[fi].AckWindow {
			fi = i
		}
	}
	return fi
}

// timedMatrixBuilds builds the matrix buildsPerSample times from a forced-GC
// start, so one sample lasts tens of milliseconds, and returns the last
// build and the host time per build.
func timedMatrixBuilds(seed uint64) (*matrixBuild, float64, error) {
	b, ns, err := timedBuild(func() (*matrixBuild, error) {
		var b *matrixBuild
		var err error
		for range buildsPerSample {
			if b, err = buildMatrix(seed); err != nil {
				return nil, err
			}
		}
		return b, nil
	})
	return b, seconds(ns) / buildsPerSample, err
}

func runMatrix(seed uint64, budget time.Duration) (*outcome, error) {
	rs := newRepStats()
	out := &outcome{metrics: newMetricSet()}
	nc, nl, nch := expectedRows()
	reps := 0
	err := repeat(budget, func() error {
		// Set-up samples precede every repetition, so their median spans the
		// whole run rather than the host's speed in its first half second.
		var b *matrixBuild
		for range matrixSetups {
			var s float64
			var err error
			if b, s, err = timedMatrixBuilds(seed); err != nil {
				return err
			}
			rs.add("setup_s", "s", s)
		}
		// The exp runs free every engine before they return, so the heap is
		// read while one matrix build is still held: the Worlds, clones and
		// services.
		rs.add("live_mb", "MB", liveMB())
		runtime.KeepAlive(b)
		rows, wallNs, failed, err := timedMatrix(seed)
		if err != nil {
			return err
		}
		fp, err := rows.fingerprint()
		if err != nil {
			return err
		}
		if reps == 0 {
			out.fp, out.attempted, out.failed = fp, nc+nl+nch, failed
		} else if fp != out.fp {
			out.problems = append(out.problems, fmt.Sprintf("repetition %d fingerprint %#x differs", reps, fp))
		}
		reps++
		rs.add("wall_s", "s", seconds(wallNs))
		rs.add("node_rounds_per_s", "1/s", float64(rows.nodeRounds())/seconds(wallNs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.into(out.metrics)
	return out, nil
}

// timedMatrix runs the three experiments from a forced-GC start.
func timedMatrix(seed uint64) (*matrixRows, int64, int, error) {
	var failed int
	rows, ns, err := timedBuild(func() (*matrixRows, error) {
		r, f := runMatrixReports(seed)
		failed = f
		return r, nil
	})
	return rows, ns, failed, err
}
