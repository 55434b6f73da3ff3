// This file implements E-LOAD, the open-loop traffic experiment: the layer
// driven as a service under offered load instead of a closed broadcast
// loop. The sweep's independent variable is *utilisation*: offered load is
// expressed as a fraction of each policy's own service capacity (one
// message per node per ack window), so every policy's throughput/latency
// knee appears at the same place on the x-axis and the curves are
// comparable even though the policies' absolute service times differ by
// orders of magnitude. Arrival schedules are compiled from (seed, load)
// alone before any run, from per-node independent streams. Policies come
// from the world registry and their engines run concurrently on the fleet
// pool; each engine is sequential, so one invocation is deterministic
// across GOMAXPROCS and worker settings.

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"lbcast/internal/sim"
	"lbcast/internal/stats"
	"lbcast/internal/workload"
	"lbcast/internal/world"
)

func init() {
	register(Experiment{ID: "E-LOAD", Claim: "open-loop service under offered load: utilisation-normalised throughput/latency knee per policy", Run: runLoadExp})
}

// loadDefaultPolicies is the default policy selection of the load matrix.
var loadDefaultPolicies = []string{"lbalg", "contention-uniform", "decay"}

// LoadRow is one (offered load, algorithm) measurement — the shared
// world.LoadRow. JSON field names are the stable schema documented in
// docs/EXPERIMENTS.md.
type LoadRow = world.LoadRow

// ScenarioRow is one preset-scenario run (fastest policy): the named
// workload shapes from internal/workload exercised end to end.
type ScenarioRow struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"queue_policy"`
	Capacity int    `json:"queue_capacity"`
	LoadRow
}

// LoadReport is the JSON document produced by `lbsim -exp load`.
type LoadReport struct {
	// Schema identifies the document layout; bump on incompatible change.
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
	Size   string `json:"size"`
	// Policies lists the selected policy names in selection order.
	Policies []string `json:"policies"`
	// Rows holds one entry per (load, algorithm), loads ascending — each
	// algorithm's knee curve read along its load column.
	Rows []LoadRow `json:"rows"`
	// Scenarios holds the preset-scenario runs.
	Scenarios []ScenarioRow `json:"scenarios,omitempty"`
	Notes     []string      `json:"notes,omitempty"`
}

// WriteJSON renders the report with stable formatting.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// loadLevels is the sweep, in utilisation units: expected arrivals per node
// per ack window of the policy under test. Spanning well below saturation
// (latency ≈ service time), the knee at 1, and deep overload (queues pinned
// at capacity, drops dominating).
var loadLevels = []float64{0.25, 0.5, 1, 2, 4}

// loadQueueCap bounds every node's queue in the sweep rows.
const loadQueueCap = 8

// RunLoad executes the load matrix with the default policy selection and
// worker count. See RunLoadPolicies.
func RunLoad(size Size, seed uint64) (*LoadReport, error) {
	return RunLoadPolicies(size, seed, nil, 0)
}

// RunLoadPolicies executes the load matrix: one constant-density geometric
// topology (the comparison family), and for every (load, policy) pair a
// Poisson arrival plan whose rate is that load in the policy's own
// utilisation units. names selects policies from the world registry (nil
// means the default trio); workers bounds engine concurrency (≤ 0 means
// GOMAXPROCS) — the report is byte-identical at any worker count.
func RunLoadPolicies(size Size, seed uint64, names []string, workers int) (*LoadReport, error) {
	if names == nil {
		names = loadDefaultPolicies
	}
	policies, err := world.Select(names)
	if err != nil {
		return nil, err
	}
	n := pick(size, 48, 100, 250)
	roundsCap := pick(size, 400_000, 900_000, 2_000_000)
	const eps = 0.2

	rep := &LoadReport{
		Schema:   "lbcast-load/v2",
		Seed:     seed,
		Size:     comparisonSizeName(size),
		Policies: names,
		Notes: []string{
			"topology: constant-density random geometric (comparison family), r=1.5, grey-zone links unreliable",
			"load = utilisation: expected arrivals per node per ack window of the row's own policy (1.0 saturates it); same generator seed per load across policies",
			fmt.Sprintf("per-node FIFO queues, capacity %d, drop-newest; ack latency = arrival→ack sojourn (queue wait + service)", loadQueueCap),
			"dual-graph scatter with the oblivious random½ link scheduler; per-policy engines are sequential (GOMAXPROCS-independent output)",
			fmt.Sprintf("ε=%v sizes every policy's acknowledgement window", eps),
			"scenario presets run against the fastest policy so queue dynamics, not raw saturation, dominate",
		},
	}
	top, err := world.NewSweepTopology(n, seed, eps)
	if err != nil {
		return nil, err
	}
	for _, load := range loadLevels {
		rows, err := runLoadPoint(top, seed, load, roundsCap, policies, workers)
		if err != nil {
			return nil, fmt.Errorf("exp: load=%v: %w", load, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	srows, err := runLoadScenarios(top, seed, roundsCap, policies)
	if err != nil {
		return nil, fmt.Errorf("exp: load scenarios: %w", err)
	}
	rep.Scenarios = srows
	return rep, nil
}

// loadMinRounds floors every run's round budget so fast policies still
// accumulate thousands of arrivals for the tail percentiles.
const loadMinRounds = 20_000

// loadRounds sizes a policy's round budget: at least eight of its own
// ack windows (so completions pile up past the knee) and at least
// loadMinRounds, capped by the size budget.
func loadRounds(window, roundsCap int) int {
	return min(roundsCap, max(8*window, loadMinRounds)+64)
}

// runLoadPoint runs every selected policy at one utilisation level through
// the World harness. Each policy's arrival rate is the load divided by its
// own ack window, over a round budget covering several of those windows;
// the generator seed is shared, so policies with equal windows serve
// identical schedules. Plans are compiled before any engine runs.
func runLoadPoint(top *world.Topology, seed uint64, load float64, roundsCap int, policies []world.Policy, workers int) ([]LoadRow, error) {
	w, err := world.New(top, policies, workers)
	if err != nil {
		return nil, err
	}
	n := top.Dual.N()
	plans := make([]*workload.Plan, len(policies))
	for i, inst := range w.Instances {
		rounds := loadRounds(inst.AckWindow, roundsCap)
		plans[i], err = workload.Poisson(workload.PoissonConfig{
			N: n, Rounds: rounds, Rate: load / float64(inst.AckWindow),
			Seed: seed ^ math.Float64bits(load),
		})
		if err != nil {
			return nil, err
		}
	}

	traffics := make([]*workload.Traffic, len(policies))
	rows := make([]LoadRow, 0, len(policies))
	err = w.Run(world.Hooks{
		Rounds: func(i int) int { return plans[i].Rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			engineSeed := world.EngineSeed(seed, i)
			if err := configureLoadRun(cfg, inst, engineSeed, plans[i], loadQueueCap, workload.DropNewest, &traffics[i]); err != nil {
				return err
			}
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			row := world.SummarizeLoad(traffics[i].Metrics(), e.Trace(), plans[i])
			row.Load = load
			row.Rate = load / float64(inst.AckWindow)
			row.Algorithm = p.Name
			rows = append(rows, row)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// configureLoadRun fills one open-loop engine configuration: the policy's
// services (a fresh bank for lbalg, see world.Instance.Services) behind
// per-node queues fed by the plan, the policy's channel seeded with the
// engine seed (the load matrix keys the link scheduler to the engine seed,
// unlike the shared-scheduler comparison matrices), and the traffic harness
// as environment. *traffic receives the harness for the summary pass.
func configureLoadRun(cfg *sim.Config, inst *world.Instance, engineSeed uint64, plan *workload.Plan,
	capacity int, policy workload.DropPolicy, traffic **workload.Traffic) error {

	svcs, procs, bank := inst.Services(plan.N)
	tr, err := workload.NewTraffic(workload.Config{
		Plan: plan, Services: svcs,
		Capacity: capacity, Policy: policy,
		LatencyCap: plan.Rounds,
	})
	if err != nil {
		return err
	}
	cfg.Procs, cfg.Bank = procs, bank
	cfg.Env = tr
	cfg.Seed = engineSeed
	inst.Channel(cfg, engineSeed)
	*traffic = tr
	return nil
}

// runLoadScenarios exercises the preset scenarios end to end against the
// fastest selected policy: the presets' absolute rates were shaped for a
// layer that acks within a few hundred rounds, so the fast policy lets
// queue dynamics (bursts building and draining, stale readings superseded)
// show up instead of uniform saturation.
func runLoadScenarios(top *world.Topology, seed uint64, roundsCap int, policies []world.Policy) ([]ScenarioRow, error) {
	w, err := world.New(top, policies, 1)
	if err != nil {
		return nil, err
	}
	fi := 0
	for i, inst := range w.Instances {
		if inst.AckWindow < w.Instances[fi].AckWindow {
			fi = i
		}
	}
	fast, fastInst := w.Policies[fi], w.Instances[fi]
	rounds := loadRounds(fastInst.AckWindow, roundsCap)
	n := top.Dual.N()

	var rows []ScenarioRow
	for _, name := range workload.ScenarioNames() {
		sc, err := workload.BuildScenario(name, n, rounds, seed)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Dual: top.Dual}
		var traffic *workload.Traffic
		if err := configureLoadRun(&cfg, fastInst, seed, sc.Plan, sc.Capacity, sc.Policy, &traffic); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		engine, err := sim.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		engine.Run(sc.Plan.Rounds)
		row := world.SummarizeLoad(traffic.Metrics(), engine.Trace(), sc.Plan)
		row.Rate = sc.Plan.OfferedLoad()
		row.Load = row.Rate * float64(fastInst.AckWindow)
		row.Algorithm = fast.Name
		rows = append(rows, ScenarioRow{
			Scenario: name,
			Policy:   sc.Policy.String(),
			Capacity: sc.Capacity,
			LoadRow:  row,
		})
	}
	return rows, nil
}

// LoadTable renders a load report as a stats table for terminal output.
func LoadTable(rep *LoadReport) *stats.Table {
	tbl := &stats.Table{
		Title: "E-LOAD: open-loop offered load vs SLOs (utilisation-normalised per policy)",
		Columns: []string{"load", "algorithm", "rounds", "offered", "dropped",
			"goodput", "ack p50", "ack p99", "ack p999", "mean backlog", "max depth"},
		Notes: rep.Notes,
	}
	for _, r := range rep.Rows {
		tbl.AddRow(fmt.Sprintf("%.2f", r.Load), r.Algorithm, r.Rounds, r.Offered,
			r.Dropped, fmt.Sprintf("%.4f", r.Goodput), r.AckP50, r.AckP99, r.AckP999,
			fmt.Sprintf("%.2f", r.MeanDepth), r.MaxDepth)
	}
	for _, s := range rep.Scenarios {
		tbl.AddRow(s.Scenario, s.Algorithm, s.Rounds, s.Offered,
			s.Dropped, fmt.Sprintf("%.4f", s.Goodput), s.AckP50, s.AckP99, s.AckP999,
			fmt.Sprintf("%.2f", s.MeanDepth), s.MaxDepth)
	}
	return tbl
}

// runLoadExp adapts RunLoad to the experiment registry.
func runLoadExp(size Size, seed uint64) (*Result, error) {
	rep, err := RunLoad(size, seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "E-LOAD",
		Claim:  "open-loop traffic: throughput/latency knee and queue behaviour per policy",
		Tables: []*stats.Table{LoadTable(rep)},
	}, nil
}
