// Package chaos is the randomized robustness harness: it derives a complete
// stress configuration — topology, reception model, adversary scheduler,
// churn plan, fade epochs, traffic — from one master seed, runs it with the
// online invariant monitor riding along (lbspec.Monitor), and when a run
// violates an invariant, delta-debugs the scenario down to a small
// counterexample that replays deterministically from its JSON form
// (`lbsim -exp chaos -repro repro.json`).
//
// A Scenario is the unit of reproduction: every field is either copied into
// the document or derived from Seed by pure computation, so "seed 17 at
// n=48" names one exact execution on every machine and every driver.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lbcast/internal/churn"
)

// SchemaV1 identifies the scenario/repro document layout.
const SchemaV1 = "lbcast-chaos/v1"

// Reception models.
const (
	ModelDualgraph = "dualgraph"
	ModelSINR      = "sinr"
)

// Link schedulers for the dual-graph model.
const (
	SchedRandom    = "random"
	SchedPeriodic  = "periodic"
	SchedAntiDecay = "antidecay"
	SchedAdaptive  = "adaptive"
)

// Fault kinds for seeded (intentionally injected) violations. Faults are
// applied at the observation layer — the monitor's view of the trace — so
// the execution itself is untouched; they exist to prove the
// detect-shrink-replay loop works end to end.
const (
	// FaultDropAck suppresses every EvAck of Node from the monitor's view:
	// the span never completes and the timely-ack deadline fires.
	FaultDropAck = "drop-ack"
	// FaultPhantomRecv injects, at Round, a reception at Node of Node's own
	// latest broadcast. A node is never its own G′ neighbor, so validity
	// fires the moment the phantom is observed.
	FaultPhantomRecv = "phantom-recv"
)

// FaultSpec is a seeded observation-layer fault.
type FaultSpec struct {
	Kind  string `json:"kind"`
	Node  int    `json:"node"`
	Round int    `json:"round,omitempty"`
}

// MaxN bounds a scenario's node count, far above any Generate makes (at
// most 96 at every experiment size), so that a repro document cannot ask
// Validate and Run for per-node state beyond what a laptop holds.
const MaxN = 1 << 16

// Scenario is one fully-determined stress configuration. The zero value is
// invalid; build one with Generate or decode a repro document.
type Scenario struct {
	// Schema is SchemaV1.
	Schema string `json:"schema"`
	// Seed derives the topology, schedulers, and engine randomness.
	Seed uint64 `json:"seed"`
	// N is the node count of the constant-density geometric topology, in
	// [2, MaxN].
	N int `json:"n"`
	// Phases is the run length in protocol phases (rounds = Phases ×
	// PhaseLen, which the runner derives from the topology; Run rejects a
	// length beyond core.MaxRounds).
	Phases int `json:"phases"`
	// Eps is the protocol error bound ε₁.
	Eps float64 `json:"eps"`
	// Model selects the physical layer: ModelDualgraph or ModelSINR.
	Model string `json:"model"`
	// Sched names the link scheduler (dual-graph model only).
	Sched string `json:"sched,omitempty"`
	// SchedP is the inclusion probability for SchedRandom.
	SchedP float64 `json:"sched_p,omitempty"`
	// AdaptTarget is the starved node for SchedAdaptive.
	AdaptTarget int `json:"adapt_target,omitempty"`
	// Senders is the saturating-sender count.
	Senders int `json:"senders"`
	// Plan is the expanded churn schedule; nil or empty means no churn.
	Plan *churn.Plan `json:"plan,omitempty"`
	// Fault is the seeded observation fault, if any.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// Validate checks the scenario's internal consistency.
func (sc *Scenario) Validate() error {
	if sc.Schema != SchemaV1 {
		return fmt.Errorf("chaos: schema %q, want %q", sc.Schema, SchemaV1)
	}
	if sc.N < 2 || sc.N > MaxN {
		return fmt.Errorf("chaos: n = %d outside [2, %d]", sc.N, MaxN)
	}
	if sc.Phases < 1 {
		return fmt.Errorf("chaos: phases = %d must be ≥ 1", sc.Phases)
	}
	if !(sc.Eps > 0 && sc.Eps <= 0.5) {
		return fmt.Errorf("chaos: eps = %v outside (0, ½]", sc.Eps)
	}
	if sc.Senders < 1 || sc.Senders > sc.N {
		return fmt.Errorf("chaos: senders = %d outside [1, %d]", sc.Senders, sc.N)
	}
	switch sc.Model {
	case ModelDualgraph:
		switch sc.Sched {
		case SchedRandom:
			if !(sc.SchedP > 0 && sc.SchedP < 1) {
				return fmt.Errorf("chaos: sched_p = %v outside (0,1)", sc.SchedP)
			}
		case SchedPeriodic, SchedAntiDecay:
		case SchedAdaptive:
			if sc.AdaptTarget < 0 || sc.AdaptTarget >= sc.N {
				return fmt.Errorf("chaos: adapt_target = %d outside [0,%d)", sc.AdaptTarget, sc.N)
			}
		default:
			return fmt.Errorf("chaos: unknown sched %q for the dual-graph model", sc.Sched)
		}
	case ModelSINR:
		if sc.Sched != "" {
			return fmt.Errorf("chaos: the SINR model takes no link scheduler (got %q)", sc.Sched)
		}
		if sc.Plan != nil {
			for _, ev := range sc.Plan.Events {
				if ev.Kind == churn.Leave || ev.Kind == churn.Join {
					return fmt.Errorf("chaos: %s events patch the dual graph and are dual-graph-model-only", ev.Kind)
				}
			}
			if len(sc.Plan.Fades) > 0 || len(sc.Plan.InitialAbsent) > 0 {
				return fmt.Errorf("chaos: fades and initial-absent sets are dual-graph-model-only")
			}
		}
	default:
		return fmt.Errorf("chaos: unknown model %q", sc.Model)
	}
	if sc.Plan != nil {
		if err := sc.Plan.Validate(sc.N); err != nil {
			return err
		}
	}
	if f := sc.Fault; f != nil {
		if f.Node < 0 || f.Node >= sc.N {
			return fmt.Errorf("chaos: fault node %d outside [0,%d)", f.Node, sc.N)
		}
		switch f.Kind {
		case FaultDropAck:
			if f.Node >= sc.Senders {
				return fmt.Errorf("chaos: drop-ack node %d is not a sender (senders = %d)", f.Node, sc.Senders)
			}
		case FaultPhantomRecv:
			if f.Round < 1 {
				return fmt.Errorf("chaos: phantom-recv round %d must be ≥ 1", f.Round)
			}
		default:
			return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
		}
	}
	return nil
}

// WriteJSON renders the scenario as a repro document with stable formatting.
func (sc *Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// WriteFile writes the repro document to path.
func (sc *Scenario) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadScenario decodes and validates a repro document.
func ReadScenario(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("chaos: decoding scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ReadScenarioFile loads a repro document from path.
func ReadScenarioFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadScenario(f)
}
