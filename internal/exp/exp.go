package exp

import (
	"fmt"
	"sort"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/lbspec"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
)

// Size selects the scale of an experiment run.
type Size int

const (
	// SizeSmall is bench/CI scale: seconds per experiment.
	SizeSmall Size = iota + 1
	// SizeMedium is the default CLI scale.
	SizeMedium
	// SizeFull is the docs/EXPERIMENTS.md publication scale.
	SizeFull
)

// ParseSize converts a flag value.
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return SizeSmall, nil
	case "medium":
		return SizeMedium, nil
	case "full":
		return SizeFull, nil
	default:
		return 0, fmt.Errorf("exp: unknown size %q (small|medium|full)", s)
	}
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Claim  string
	Tables []*stats.Table
}

// Experiment couples a claim with the code that regenerates it.
type Experiment struct {
	// ID is the experiment identifier from docs/EXPERIMENTS.md (e.g. "E-PROG").
	ID string
	// Claim names the paper statement being reproduced.
	Claim string
	// Run executes the experiment at the given size with the given seed.
	Run func(size Size, seed uint64) (*Result, error)
}

// registry holds the experiments in registration order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// --- shared plumbing -------------------------------------------------------

// lbNetwork is an assembled LBAlg deployment ready to run; mon judges it
// online against the LB specification.
type lbNetwork struct {
	engine *sim.Engine
	mon    *lbspec.Monitor
}

// buildLBNetwork wires LBAlg over a dual graph and attaches an lbspec
// Monitor sharing the engine's trace; the monitor wraps the environment
// envFn returns. envFn may be nil.
func buildLBNetwork(d *dualgraph.Dual, p core.Params, s sim.LinkScheduler,
	envFn func([]core.Service) sim.Environment, seed uint64) (*lbNetwork, error) {

	plan := core.NewPhasePlan(p)
	procs := make([]sim.Process, d.N())
	svcs := make([]core.Service, d.N())
	for u := range procs {
		alg := core.NewLBAlgWithPlan(plan)
		procs[u] = alg
		svcs[u] = alg
	}
	var env sim.Environment
	if envFn != nil {
		env = envFn(svcs)
	}
	tr := &sim.Trace{}
	mon, err := lbspec.NewMonitor(lbspec.MonitorConfig{
		Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: env,
	})
	if err != nil {
		return nil, err
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: s, Env: mon, Trace: tr, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &lbNetwork{engine: e, mon: mon}, nil
}

// firstHearRound runs the engine until the given node hears any data
// message, returning the round (or maxRounds if it never does). It scans
// only newly appended events each step.
func firstHearRound(e *sim.Engine, node, maxRounds int) int {
	seen := 0
	for r := 0; r < maxRounds; r++ {
		e.Step()
		tr := e.Trace()
		for ; seen < tr.Len(); seen++ {
			ev := tr.At(seen)
			if ev.Kind == sim.EvHear && ev.Node == node {
				return ev.Round
			}
		}
	}
	return maxRounds
}

// senderRange returns [0, k) as a slice.
func senderRange(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// pick returns small/medium/full values by size.
func pick[T any](size Size, small, medium, full T) T {
	switch size {
	case SizeMedium:
		return medium
	case SizeFull:
		return full
	default:
		return small
	}
}
