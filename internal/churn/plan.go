package churn

import (
	"encoding/json"
	"fmt"
	"sort"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// Kind classifies one lifecycle event.
type Kind uint8

const (
	// Crash takes the node's radio down; its protocol state is frozen
	// mid-execution, which is what a crash means.
	Crash Kind = iota + 1
	// Recover brings a crashed node back: the radio comes up and the
	// protocol restarts from scratch under a fresh incarnation RNG.
	Recover
	// Leave detaches the node from the dual graph (its edges disappear and
	// the unreliable edge indices renumber) and silences it.
	Leave
	// Join re-attaches a departed node at its original position and starts
	// a fresh protocol instance on it.
	Join
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Leave:
		return "leave"
	case Join:
		return "join"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name, the stable spelling of the
// lbcast-chaos/v1 scenario documents.
func (k Kind) MarshalJSON() ([]byte, error) {
	s := k.String()
	switch k {
	case Crash, Recover, Leave, Join:
		return json.Marshal(s)
	}
	return nil, fmt.Errorf("churn: cannot marshal invalid %s", s)
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "crash":
		*k = Crash
	case "recover":
		*k = Recover
	case "leave":
		*k = Leave
	case "join":
		*k = Join
	default:
		return fmt.Errorf("churn: unknown event kind %q", s)
	}
	return nil
}

// Event is one scheduled lifecycle fault: Kind happens to Node at the start
// of round Round, before any process acts in that round.
type Event struct {
	Round int  `json:"round"`
	Kind  Kind `json:"kind"`
	Node  int  `json:"node"`
}

// Fade is one region-level fading epoch: during rounds [Start, End) every
// unreliable edge with an endpoint in one of Regions is forced out of the
// communication graph, regardless of what the base link scheduler says.
type Fade struct {
	Start   int            `json:"start"`
	End     int            `json:"end"`
	Regions []geo.RegionID `json:"regions"`
}

// Plan is a complete, deterministic fault schedule: it is fully expanded
// before the run starts, so replaying a plan is as reproducible as running
// without one.
type Plan struct {
	// Events holds the lifecycle schedule in canonical (Round, Node) order.
	// At most one event per node per round.
	Events []Event `json:"events,omitempty"`
	// Fades holds the fading epochs, ordered by Start.
	Fades []Fade `json:"fades,omitempty"`
	// InitialAbsent lists nodes that start outside the network: the
	// injector detaches them before the engine is built and a Join event
	// brings them in. Ascending, no duplicates.
	InitialAbsent []int `json:"initial_absent,omitempty"`
}

// Empty reports whether the plan schedules nothing at all — the injector
// for an empty plan is a pure pass-through and the execution must be
// byte-identical to one without it.
func (p *Plan) Empty() bool {
	return len(p.Events) == 0 && len(p.Fades) == 0 && len(p.InitialAbsent) == 0
}

// PlanStats summarises the fault load a plan puts on an n-node network
// over a round horizon.
type PlanStats struct {
	// Crashes, Recovers, Leaves, Joins count the events within the horizon.
	Crashes, Recovers, Leaves, Joins int
	// DownNodeRounds is how many node-rounds are spent down or absent in
	// rounds [1, horizon] — the integral of unavailability.
	DownNodeRounds int
	// EventsPerRound is the lifecycle event rate over the horizon.
	EventsPerRound float64
}

// Stats replays the plan's state machine over rounds [1, horizon] and
// tallies the fault load. Assumes a validated plan.
func (p *Plan) Stats(n, horizon int) PlanStats {
	var s PlanStats
	downSince := make([]int, n) // round the node went down; 0 = up
	for _, u := range p.InitialAbsent {
		downSince[u] = 1
	}
	closeOutage := func(u, at int) {
		if downSince[u] > 0 {
			s.DownNodeRounds += min(at, horizon+1) - min(downSince[u], horizon+1)
			downSince[u] = 0
		}
	}
	for _, ev := range p.Events {
		if ev.Round > horizon {
			break
		}
		switch ev.Kind {
		case Crash:
			s.Crashes++
			downSince[ev.Node] = ev.Round
		case Leave:
			s.Leaves++
			downSince[ev.Node] = ev.Round
		case Recover:
			s.Recovers++
			closeOutage(ev.Node, ev.Round)
		case Join:
			s.Joins++
			closeOutage(ev.Node, ev.Round)
		}
	}
	for u := range downSince {
		closeOutage(u, horizon+1)
	}
	if horizon > 0 {
		s.EventsPerRound = float64(s.Crashes+s.Recovers+s.Leaves+s.Joins) / float64(horizon)
	}
	return s
}

// eventLess is the canonical event order: by round, then node. Kind need
// not participate — Validate rejects two same-round events on one node.
func eventLess(a, b Event) bool {
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	return a.Node < b.Node
}

// normalize sorts the schedule into canonical order.
func (p *Plan) normalize() {
	sort.SliceStable(p.Events, func(i, j int) bool { return eventLess(p.Events[i], p.Events[j]) })
	sort.SliceStable(p.Fades, func(i, j int) bool { return p.Fades[i].Start < p.Fades[j].Start })
	sort.Ints(p.InitialAbsent)
}

// Validate replays the plan against the per-node lifecycle state machine
// for an n-node network and rejects any schedule the injector could not
// apply: out-of-range nodes or rounds, two events on one node in one
// round, crashing a node that is down or absent, recovering one that is
// up, leaving an absent node, joining a present one, or an empty/reversed
// fade window.
func (p *Plan) Validate(n int) error {
	type state struct{ present, up bool }
	nodes := make([]state, n)
	for i := range nodes {
		nodes[i] = state{present: true, up: true}
	}
	for i, u := range p.InitialAbsent {
		if u < 0 || u >= n {
			return fmt.Errorf("churn: initial-absent node %d out of range [0,%d)", u, n)
		}
		if i > 0 && p.InitialAbsent[i-1] >= u {
			return fmt.Errorf("churn: initial-absent list not strictly ascending at %d", u)
		}
		nodes[u] = state{}
	}
	lastRound, lastNode := 0, -1
	for _, ev := range p.Events {
		if ev.Node < 0 || ev.Node >= n {
			return fmt.Errorf("churn: event %s node %d out of range [0,%d)", ev.Kind, ev.Node, n)
		}
		if ev.Round < 1 {
			return fmt.Errorf("churn: event %s@%d round %d before round 1", ev.Kind, ev.Node, ev.Round)
		}
		if ev.Round < lastRound || (ev.Round == lastRound && ev.Node < lastNode) {
			return fmt.Errorf("churn: events not in canonical (round, node) order at %s@%d round %d",
				ev.Kind, ev.Node, ev.Round)
		}
		if ev.Round == lastRound && ev.Node == lastNode {
			return fmt.Errorf("churn: two events for node %d in round %d", ev.Node, ev.Round)
		}
		lastRound, lastNode = ev.Round, ev.Node
		s := &nodes[ev.Node]
		switch ev.Kind {
		case Crash:
			if !s.present || !s.up {
				return fmt.Errorf("churn: crash of node %d in round %d: node not up", ev.Node, ev.Round)
			}
			s.up = false
		case Recover:
			if !s.present || s.up {
				return fmt.Errorf("churn: recover of node %d in round %d: node not crashed", ev.Node, ev.Round)
			}
			s.up = true
		case Leave:
			if !s.present {
				return fmt.Errorf("churn: leave of node %d in round %d: node absent", ev.Node, ev.Round)
			}
			s.present, s.up = false, false
		case Join:
			if s.present {
				return fmt.Errorf("churn: join of node %d in round %d: node present", ev.Node, ev.Round)
			}
			s.present, s.up = true, true
		default:
			return fmt.Errorf("churn: unknown event kind %d", ev.Kind)
		}
	}
	for i, f := range p.Fades {
		if f.Start < 1 || f.End <= f.Start {
			return fmt.Errorf("churn: fade %d window [%d,%d) invalid", i, f.Start, f.End)
		}
		if len(f.Regions) == 0 {
			return fmt.Errorf("churn: fade %d has no regions", i)
		}
	}
	return nil
}

// FixedScript builds a plan from explicit event and fade lists, sorting
// them into canonical order. The caller validates against a node count via
// Plan.Validate (typically NewInjector does).
func FixedScript(events []Event, fades []Fade, initialAbsent []int) *Plan {
	p := &Plan{
		Events:        append([]Event(nil), events...),
		Fades:         append([]Fade(nil), fades...),
		InitialAbsent: append([]int(nil), initialAbsent...),
	}
	p.normalize()
	return p
}

// PoissonConfig parameterises the memoryless churn model: per-round
// Bernoulli arrival of crashes and departures (the discrete-time rendering
// of Poisson arrivals), with bounded random outage durations.
type PoissonConfig struct {
	// N is the network size; Rounds the schedule horizon.
	N, Rounds int
	// Seed derives every node's private fault stream, so the plan is a
	// deterministic function of the config.
	Seed uint64
	// CrashRate is the per-round crash probability of an up node.
	CrashRate float64
	// MeanDowntime is the mean crash outage in rounds (≥ 1). Outages are
	// uniform on [1, 2·MeanDowntime−1], so they are bounded and mean what
	// they say.
	MeanDowntime int
	// LeaveRate is the per-round departure probability of a present node;
	// 0 disables leave/join churn.
	LeaveRate float64
	// MeanAbsence is the mean absence before rejoin, sampled like
	// MeanDowntime. Defaults to MeanDowntime when 0.
	MeanAbsence int
	// InitialAbsent seeds the plan's initially-departed set; those nodes
	// join per the same absence distribution.
	InitialAbsent []int
}

// Poisson expands the config into an explicit plan. Each node walks its own
// lifecycle chain with a private xrand stream, so the schedule for node u
// is independent of every other node and of N — adding nodes never
// perturbs existing fault sequences.
func Poisson(cfg PoissonConfig) (*Plan, error) {
	if cfg.N <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("churn: poisson plan needs N > 0 and Rounds > 0")
	}
	if cfg.CrashRate < 0 || cfg.CrashRate > 1 || cfg.LeaveRate < 0 || cfg.LeaveRate > 1 {
		return nil, fmt.Errorf("churn: rates must lie in [0,1]")
	}
	if cfg.MeanDowntime <= 0 {
		cfg.MeanDowntime = 1
	}
	if cfg.MeanAbsence <= 0 {
		cfg.MeanAbsence = cfg.MeanDowntime
	}
	absent := make([]bool, cfg.N)
	for _, u := range cfg.InitialAbsent {
		if u < 0 || u >= cfg.N {
			return nil, fmt.Errorf("churn: initial-absent node %d out of range [0,%d)", u, cfg.N)
		}
		absent[u] = true
	}
	p := &Plan{InitialAbsent: append([]int(nil), cfg.InitialAbsent...)}
	for u := 0; u < cfg.N; u++ {
		rng := xrand.NodeSource(cfg.Seed, u)
		present, up := !absent[u], !absent[u]
		wakeAt := 0 // round of the pending recover/join, when down or absent
		if !present {
			wakeAt = 1 + sampleDuration(rng, cfg.MeanAbsence)
		}
		for t := 1; t <= cfg.Rounds; t++ {
			switch {
			case !present:
				if t == wakeAt {
					p.Events = append(p.Events, Event{Round: t, Kind: Join, Node: u})
					present, up = true, true
				}
			case !up:
				if t == wakeAt {
					p.Events = append(p.Events, Event{Round: t, Kind: Recover, Node: u})
					up = true
				}
			case cfg.LeaveRate > 0 && rng.Coin(cfg.LeaveRate):
				p.Events = append(p.Events, Event{Round: t, Kind: Leave, Node: u})
				present, up = false, false
				wakeAt = t + sampleDuration(rng, cfg.MeanAbsence)
			case cfg.CrashRate > 0 && rng.Coin(cfg.CrashRate):
				p.Events = append(p.Events, Event{Round: t, Kind: Crash, Node: u})
				up = false
				wakeAt = t + sampleDuration(rng, cfg.MeanDowntime)
			}
		}
	}
	p.normalize()
	return p, nil
}

// sampleDuration draws a bounded outage length with the given mean:
// uniform on [1, 2·mean−1].
func sampleDuration(rng *xrand.Source, mean int) int {
	if mean <= 1 {
		return 1
	}
	return 1 + rng.Intn(2*mean-1)
}
