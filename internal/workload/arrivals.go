package workload

import (
	"fmt"
	"math"
	"sort"

	"lbcast/internal/xrand"
)

// Arrival is one offered message: a payload enters Node's send queue at the
// start of round Round, before any process acts in that round.
type Arrival struct {
	Round int `json:"round"`
	Node  int `json:"node"`
}

// Epoch is one half-open round interval [Start, End). The MMPP generator
// reports its burst epochs this way; scenario docs and the statistical
// tests consume them.
type Epoch struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Plan is a complete, deterministic arrival schedule: like churn.Plan it is
// fully expanded before the run starts, so an execution is a pure function
// of (topology, plan, seed) and a recorded plan replays bit-identically.
type Plan struct {
	// N and Rounds bound the schedule: every arrival has Node ∈ [0, N) and
	// Round ∈ [1, Rounds].
	N      int `json:"n"`
	Rounds int `json:"rounds"`
	// Arrivals holds the schedule in canonical (Round, Node) order.
	// Multiple arrivals for the same node in the same round are allowed
	// (a burst delivers several messages into the queue at once).
	Arrivals []Arrival `json:"arrivals"`
}

// Validate checks the canonical ordering and bounds.
func (p *Plan) Validate() error {
	if p.N <= 0 || p.Rounds <= 0 {
		return fmt.Errorf("workload: plan needs N > 0 and Rounds > 0")
	}
	prev := Arrival{Round: 1}
	for i, a := range p.Arrivals {
		if a.Node < 0 || a.Node >= p.N {
			return fmt.Errorf("workload: arrival %d: node %d out of range [0,%d)", i, a.Node, p.N)
		}
		if a.Round < 1 || a.Round > p.Rounds {
			return fmt.Errorf("workload: arrival %d: round %d out of range [1,%d]", i, a.Round, p.Rounds)
		}
		if a.Round < prev.Round || (a.Round == prev.Round && a.Node < prev.Node) {
			return fmt.Errorf("workload: arrival %d out of (round, node) order", i)
		}
		prev = a
	}
	return nil
}

// OfferedLoad returns the plan's mean offered load in arrivals per node per
// round.
func (p *Plan) OfferedLoad() float64 {
	if p.N == 0 || p.Rounds == 0 {
		return 0
	}
	return float64(len(p.Arrivals)) / (float64(p.N) * float64(p.Rounds))
}

// normalize sorts arrivals into canonical (Round, Node) order, preserving
// the relative order of equal (Round, Node) pairs (a same-round burst keeps
// its generation order).
func (p *Plan) normalize() {
	sort.SliceStable(p.Arrivals, func(i, j int) bool {
		a, b := p.Arrivals[i], p.Arrivals[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		return a.Node < b.Node
	})
}

// nodeStream returns the arrival-generator stream for one node. It is the
// same N-independence discipline as churn.Plan: node u's stream depends on
// (seed, u) only, never on N, so growing the network leaves every existing
// node's arrivals bit-identical. The domain tag keeps workload draws
// disjoint from the engine's process streams at the same seed.
func nodeStream(seed uint64, u int) *xrand.Source {
	return xrand.New(seed ^ 0x574b4c4f4144).Split(uint64(u)) // "WKLOAD"
}

// PoissonConfig parameterises the memoryless arrival process.
type PoissonConfig struct {
	// N is the node count, Rounds the schedule length.
	N, Rounds int
	// Rate is the expected arrivals per node per round (may exceed 1; a
	// round can deliver several arrivals to the same queue).
	Rate float64
	// Seed derives the per-node generator streams.
	Seed uint64
}

// Poisson expands a Poisson arrival plan: each node runs an independent
// continuous-time Poisson clock with exponential(Rate) interarrival gaps,
// and an event at time τ lands in round ⌈τ⌉. Interarrival times are thus
// exactly exponential with mean 1/Rate — the property the statistical
// suite checks — and generation consumes draws proportional to the number
// of arrivals, not to N·Rounds.
func Poisson(cfg PoissonConfig) (*Plan, error) {
	if cfg.N <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("workload: poisson plan needs N > 0 and Rounds > 0")
	}
	if cfg.Rate < 0 || math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		return nil, fmt.Errorf("workload: poisson rate %v must be finite and non-negative", cfg.Rate)
	}
	p := &Plan{N: cfg.N, Rounds: cfg.Rounds}
	if cfg.Rate == 0 {
		return p, nil
	}
	for u := 0; u < cfg.N; u++ {
		rng := nodeStream(cfg.Seed, u)
		for tau := expGap(rng, cfg.Rate); tau <= float64(cfg.Rounds); tau += expGap(rng, cfg.Rate) {
			round := int(math.Ceil(tau))
			if round < 1 {
				round = 1
			}
			p.Arrivals = append(p.Arrivals, Arrival{Round: round, Node: u})
		}
	}
	p.normalize()
	return p, nil
}

// expGap samples one exponential interarrival gap with mean 1/rate. The
// uniform is taken as 1−Float64() ∈ (0, 1], so the logarithm is always
// finite.
func expGap(rng *xrand.Source, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// MMPPConfig parameterises the bursty (Markov-modulated Poisson) process:
// a global two-state regime chain switches between a quiet and a burst
// rate, and every node draws arrivals at the current regime's rate.
type MMPPConfig struct {
	N, Rounds int
	// QuietRate and BurstRate are per-node per-round arrival probabilities
	// in the two regimes (Bernoulli thinning: at most one arrival per node
	// per round; both must lie in [0, 1]).
	QuietRate, BurstRate float64
	// MeanQuiet and MeanBurst are the expected regime durations in rounds;
	// the chain leaves a regime with probability 1/mean each round.
	MeanQuiet, MeanBurst int
	// Seed derives the regime chain and the per-node thinning streams.
	Seed uint64
}

// MMPP expands a bursty arrival plan and returns the burst epochs the
// regime chain visited. The regime chain is derived from Seed alone and
// each node's thinning stream consumes exactly one draw per round, so the
// schedule keeps the per-node N-independence discipline: adding nodes
// never shifts an existing node's arrivals.
func MMPP(cfg MMPPConfig) (*Plan, []Epoch, error) {
	if cfg.N <= 0 || cfg.Rounds <= 0 {
		return nil, nil, fmt.Errorf("workload: mmpp plan needs N > 0 and Rounds > 0")
	}
	if cfg.QuietRate < 0 || cfg.QuietRate > 1 || cfg.BurstRate < 0 || cfg.BurstRate > 1 {
		return nil, nil, fmt.Errorf("workload: mmpp rates must lie in [0,1]")
	}
	if cfg.MeanQuiet <= 0 || cfg.MeanBurst <= 0 {
		return nil, nil, fmt.Errorf("workload: mmpp regime durations must be positive")
	}
	// Expand the global regime chain first: rate[t-1] for rounds 1..Rounds.
	regime := xrand.New(cfg.Seed ^ 0x4d4d5050).Split(0) // "MMPP"
	rate := make([]float64, cfg.Rounds)
	var epochs []Epoch
	burst := false
	for t := 1; t <= cfg.Rounds; t++ {
		switch {
		case !burst && regime.Coin(1/float64(cfg.MeanQuiet)):
			burst = true
			epochs = append(epochs, Epoch{Start: t, End: cfg.Rounds + 1})
		case burst && regime.Coin(1/float64(cfg.MeanBurst)):
			burst = false
			epochs[len(epochs)-1].End = t
		}
		if burst {
			rate[t-1] = cfg.BurstRate
		} else {
			rate[t-1] = cfg.QuietRate
		}
	}
	p := &Plan{N: cfg.N, Rounds: cfg.Rounds}
	thin(p, cfg.Seed, rate)
	return p, epochs, nil
}

// DiurnalConfig parameterises the rate-curve process: a sinusoidal daily
// load curve sampled per round, with per-node Bernoulli thinning.
type DiurnalConfig struct {
	N, Rounds int
	// Base is the mean per-node per-round arrival probability, Amp the
	// curve's amplitude around it; the instantaneous rate is clamped to
	// [0, 1] (see RateAt).
	Base, Amp float64
	// Period is the curve's period in rounds (one simulated "day").
	Period int
	// Seed derives the per-node thinning streams.
	Seed uint64
}

// RateAt returns the instantaneous arrival probability for round t:
// Base + Amp·sin(2πt/Period), clamped to [0, 1]. Exported so the
// statistical suite can integrate the curve it is validating against.
func (cfg DiurnalConfig) RateAt(t int) float64 {
	r := cfg.Base + cfg.Amp*math.Sin(2*math.Pi*float64(t)/float64(cfg.Period))
	return math.Min(1, math.Max(0, r))
}

// Diurnal expands a rate-curve arrival plan: round t offers each node an
// arrival with probability RateAt(t), from the node's private stream (one
// draw per round per node, N-independent).
func Diurnal(cfg DiurnalConfig) (*Plan, error) {
	if cfg.N <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("workload: diurnal plan needs N > 0 and Rounds > 0")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("workload: diurnal period must be positive")
	}
	if math.IsNaN(cfg.Base) || math.IsNaN(cfg.Amp) {
		return nil, fmt.Errorf("workload: diurnal rates must be numbers")
	}
	rate := make([]float64, cfg.Rounds)
	for t := 1; t <= cfg.Rounds; t++ {
		rate[t-1] = cfg.RateAt(t)
	}
	p := &Plan{N: cfg.N, Rounds: cfg.Rounds}
	thin(p, cfg.Seed, rate)
	return p, nil
}

// thin fills the plan by Bernoulli-sampling each (node, round) against the
// given per-round rate curve. Each node samples only from its private
// stream, so per-node schedules are independent of N; the draw sequence
// depends on the (seed-determined) curve but never on other nodes.
func thin(p *Plan, seed uint64, rate []float64) {
	for u := 0; u < p.N; u++ {
		rng := nodeStream(seed, u)
		for t := 1; t <= p.Rounds; t++ {
			if rng.Coin(rate[t-1]) {
				p.Arrivals = append(p.Arrivals, Arrival{Round: t, Node: u})
			}
		}
	}
	p.normalize()
}
