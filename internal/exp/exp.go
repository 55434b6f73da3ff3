package exp

import (
	"fmt"

	"lbcast/internal/core"
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

// --- shared plumbing -------------------------------------------------------

// saturate builds the environment that keeps the given senders
// broadcasting back to back.
func saturate(senders []int) func([]core.Service) (sim.Environment, error) {
	return func(svcs []core.Service) (sim.Environment, error) {
		return core.NewSaturatingEnv(svcs, senders), nil
	}
}

// singleShot builds the environment that issues the given broadcasts once.
func singleShot(sends []core.Send) func([]core.Service) (sim.Environment, error) {
	return func(svcs []core.Service) (sim.Environment, error) {
		return core.NewSingleShotEnv(svcs, sends), nil
	}
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
