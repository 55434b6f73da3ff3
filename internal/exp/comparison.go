// This file implements the comparison-experiment subsystem named in
// ROADMAP: head-to-head runs of LBAlg against the GHLN contention-management
// baselines (internal/baseline.Contention) and the SINR local broadcast
// layer (internal/sinr), over constant-density random-geometric
// topologies (world.NewSweepTopology). The matrix itself lives in
// internal/world: policies come from the registry, every selected policy
// runs on the identical topology under one shared round budget (engines run
// concurrently on the fleet pool), and the shared world.Summarize pass
// extracts comparable ack-latency, progress and message-complexity figures
// regardless of which physical layer resolved the rounds.

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"lbcast/internal/baseline"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sim"
	"lbcast/internal/sinr"
	"lbcast/internal/stats"
	"lbcast/internal/world"
	"lbcast/internal/xrand"
)

func init() {
	register(Experiment{ID: "E-COMPARE", Claim: "ROADMAP comparison workloads: LBAlg vs SINR local broadcast vs GHLN contention baselines", Run: runComparisonExp})
	register(Experiment{ID: "E-SINR", Claim: "SINR reception model: isolation range and contention collapse", Run: runSINRExp})
}

// ComparisonRow is one (topology, algorithm) measurement of the comparison
// table — the shared world.Row. JSON field names are the stable schema
// documented in docs/EXPERIMENTS.md.
type ComparisonRow = world.Row

// ComparisonReport is the JSON document produced by the comparison runs
// (`lbsim -exp comparison`, `lbbench -sweep -compare`).
type ComparisonReport struct {
	// Schema identifies the document layout; bump on incompatible change.
	Schema string `json:"schema"`
	// Seed is the experiment seed all runs derived from.
	Seed uint64 `json:"seed"`
	// Size is the experiment scale the point counts were picked at.
	Size string `json:"size"`
	// Policies lists the selected policy names in selection order — the
	// order each topology's rows appear in.
	Policies []string `json:"policies"`
	// Rows holds one entry per (topology, algorithm), topologies ascending.
	Rows []ComparisonRow `json:"rows"`
	// Notes records calibration context for human readers.
	Notes []string `json:"notes,omitempty"`
}

// WriteJSON renders the report with stable formatting.
func (r *ComparisonReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// comparisonSizeName maps a Size back to its flag spelling for the report.
func comparisonSizeName(size Size) string {
	switch size {
	case SizeMedium:
		return "medium"
	case SizeFull:
		return "full"
	default:
		return "small"
	}
}

// RunComparison executes the comparison matrix over every registered
// policy with the default worker count. See RunComparisonPolicies.
func RunComparison(size Size, seed uint64) (*ComparisonReport, error) {
	return RunComparisonPolicies(size, seed, nil, 0)
}

// RunComparisonPolicies executes the comparison matrix: for each sweep
// topology (constant-density random geometric, the PR 2 family) every
// selected policy runs the same round budget under a saturating-sender
// environment, and one trace pass per run extracts the
// ack-latency/progress/message-complexity row. The dual-graph policies face
// the oblivious random½ link scheduler; the SINR policies run over the same
// embedding. names selects policies from the world registry (nil means all,
// in registration order); workers bounds how many policy engines run
// concurrently (≤ 0 means GOMAXPROCS) — the report is byte-identical at any
// worker count.
func RunComparisonPolicies(size Size, seed uint64, names []string, workers int) (*ComparisonReport, error) {
	if names == nil {
		names = world.Names()
	}
	policies, err := world.Select(names)
	if err != nil {
		return nil, err
	}
	ns := pick(size, []int{48, 128}, []int{100, 400}, []int{1000, 4000, 10_000})
	// The budget must cover the slowest policy's acknowledgement window
	// (LBAlg's t_ack, tens of thousands of rounds at these Δ); the cap is a
	// safety valve, not the expected binding constraint.
	roundsCap := pick(size, 150_000, 250_000, 500_000)
	const eps = 0.2

	rep := &ComparisonReport{
		Schema:   "lbcast-comparison/v2",
		Seed:     seed,
		Size:     comparisonSizeName(size),
		Policies: names,
		Notes: []string{
			"topologies: constant-density random geometric (PR 2 sweep family), r=1.5, grey-zone links unreliable",
			"dual-graph policies run against the oblivious random½ link scheduler",
			fmt.Sprintf("sinr-local runs over the same embedding with uniform power, α=%v β=%v noise=%v",
				sinr.DefaultParams().Alpha, sinr.DefaultParams().Beta, sinr.DefaultParams().Noise),
			"sinr-pernode repeats the SINR run with a deterministic 2× per-node power spread (P_u ∈ [0.75, 1.5]); its reliability neighbor sets use per-source isolation ranges",
			fmt.Sprintf("ε=%v sizes every policy's acknowledgement window", eps),
		},
	}
	for _, n := range ns {
		rows, err := runComparisonPoint(n, seed, eps, roundsCap, policies, workers)
		if err != nil {
			return nil, fmt.Errorf("exp: comparison n=%d: %w", n, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// comparisonSpillMinNodeRounds is the n·rounds volume beyond which a
// comparison run spills its trace to disk. Small points (the unit-test
// sizes) keep everything in memory.
const comparisonSpillMinNodeRounds = 1 << 22

// runComparisonPoint runs every selected policy on one topology instance
// through the World harness.
func runComparisonPoint(n int, seed uint64, eps float64, roundsCap int, policies []world.Policy, workers int) ([]ComparisonRow, error) {
	top, err := world.NewSweepTopology(n, seed, eps)
	if err != nil {
		return nil, err
	}
	w, err := world.New(top, policies, workers)
	if err != nil {
		return nil, err
	}
	// One shared round budget per topology: two full ack cycles of the
	// slowest policy, capped so outlier parameterisations stay affordable.
	rounds := w.Window(roundsCap)
	senders := len(w.Senders())

	rows := make([]ComparisonRow, 0, len(policies))
	err = w.Run(world.Hooks{
		Rounds: func(int) int { return rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			svcs := make([]core.Service, n)
			procs := make([]sim.Process, n)
			for u := 0; u < n; u++ {
				svcs[u] = inst.NewService(u)
				procs[u] = svcs[u]
			}
			cfg.Procs = procs
			cfg.Env = core.NewSaturatingEnv(svcs, senderRange(senders))
			cfg.Seed = world.EngineSeed(seed, i)
			inst.Channel(cfg, seed)
			return nil
		},
		Attach: func(i int, p world.Policy, e *sim.Engine) error {
			// Large points spill sealed trace chunks to disk: the n = 4000
			// full-size row runs a ~190k-round budget whose event history
			// would otherwise dominate resident memory. The summary pass
			// below reads the trace once in order, which rehydrates spilled
			// chunks through the one-chunk cache; a spill setup failure just
			// keeps the trace in memory.
			if int64(n)*int64(rounds) >= comparisonSpillMinNodeRounds {
				if err := e.Trace().SpillToDisk(""); err != nil {
					fmt.Fprintf(os.Stderr, "exp: comparison trace spill disabled: %v\n", err)
				}
			}
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			row := world.Summarize(e.Trace(), rounds, inst.Neighbors)
			if err := e.Trace().SpillError(); err != nil {
				fmt.Fprintf(os.Stderr, "exp: comparison trace spill degraded: %v\n", err)
			}
			e.Trace().CloseSpill()
			row.Topology = "sweep-geometric"
			row.N = n
			row.Algorithm = p.Name
			row.Model = p.Model
			row.Senders = senders
			rows = append(rows, row)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ComparisonTable renders a report as a stats table for terminal output.
func ComparisonTable(rep *ComparisonReport) *stats.Table {
	tbl := &stats.Table{
		Title: "E-COMPARE: LBAlg vs SINR local broadcast vs contention baselines",
		Columns: []string{"n", "algorithm", "model", "rounds", "acks", "reliability",
			"ack p50", "1st-recv p50", "msgs/ack", "deliv/round", "collision rate"},
		Notes: rep.Notes,
	}
	for _, r := range rep.Rows {
		tbl.AddRow(r.N, r.Algorithm, r.Model, r.Rounds, r.Acks,
			fmt.Sprintf("%.3f", r.Reliability), r.AckP50, r.FirstRecvP50,
			stats.FormatFloat(r.MsgsPerAck), stats.FormatFloat(r.DeliveriesPerRound),
			fmt.Sprintf("%.3f", r.CollisionRate))
	}
	return tbl
}

// runComparisonExp adapts RunComparison to the experiment registry.
func runComparisonExp(size Size, seed uint64) (*Result, error) {
	rep, err := RunComparison(size, seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "E-COMPARE",
		Claim:  "ROADMAP comparison workloads (GHLN contention bounds; HHL SINR local broadcast)",
		Tables: []*stats.Table{ComparisonTable(rep)},
	}, nil
}

// runSINRExp checks the SINR model's two defining behaviours on a sweep
// topology: the isolation reception range of a lone transmitter, and the
// collapse of goodput as the transmit probability — and with it the
// aggregate interference — rises.
func runSINRExp(size Size, seed uint64) (*Result, error) {
	n := pick(size, 64, 256, 1024)
	rounds := pick(size, 400, 1000, 4000)
	side := math.Max(4, math.Sqrt(float64(n)/4))
	d, err := dualgraph.RandomGeometric(n, side, side, 1.5, dualgraph.GreyUnreliable, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	params := sinr.DefaultParams()
	model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), params)
	if err != nil {
		return nil, err
	}

	// Isolation range: with exactly node 0 transmitting, every node inside
	// Range(1) must decode it and every node outside must hear silence.
	out := make([]int32, n)
	model.Resolve(1, []int32{0}, out)
	rangeViolations := 0
	isolationRange := params.Range(1)
	for u := 1; u < n; u++ {
		inRange := geo.Dist(d.Emb[0], d.Emb[u]) <= isolationRange
		if inRange != (out[u] == 0) {
			rangeViolations++
		}
	}

	tbl := &stats.Table{
		Title:   "E-SINR: isolation range and contention collapse (uniform power)",
		Columns: []string{"tx prob", "rounds", "deliveries/round", "collision rate"},
		Notes: []string{
			fmt.Sprintf("n=%d sweep-geometric; α=%v β=%v noise=%v ⇒ isolation range %.3f",
				n, params.Alpha, params.Beta, params.Noise, isolationRange),
			fmt.Sprintf("lone-transmitter range violations: %d (must be 0)", rangeViolations),
		},
	}
	for _, p := range []float64{0.02, 0.05, 0.1, 0.25, 0.5} {
		procs := make([]sim.Process, n)
		for u := range procs {
			procs[u] = &baseline.Chatter{P: p}
		}
		e, err := sim.New(sim.Config{Dual: d, Procs: procs, Reception: model, Seed: seed})
		if err != nil {
			return nil, err
		}
		e.Run(rounds)
		tr := e.Trace()
		colRate := 0.0
		if tr.Deliveries+tr.Collisions > 0 {
			colRate = float64(tr.Collisions) / float64(tr.Deliveries+tr.Collisions)
		}
		tbl.AddRow(p, rounds, stats.FormatFloat(float64(tr.Deliveries)/float64(rounds)),
			fmt.Sprintf("%.3f", colRate))
	}
	if rangeViolations > 0 {
		return nil, fmt.Errorf("E-SINR: %d isolation-range violations", rangeViolations)
	}
	return &Result{ID: "E-SINR", Claim: "SINR reception model sanity", Tables: []*stats.Table{tbl}}, nil
}
