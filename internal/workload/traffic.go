package workload

import (
	"fmt"

	"lbcast/internal/core"
	"lbcast/internal/sim"
	"lbcast/internal/stats"
)

// DepthSample is one point of the queue-depth time series: the total queued
// messages across all nodes and the deepest single queue at the end of
// Round.
type DepthSample struct {
	Round int `json:"round"`
	Total int `json:"total"`
	Max   int `json:"max"`
}

// Metrics is the service-style view of a run accumulated by Traffic:
// offered/accepted/dropped arrivals, completed broadcasts, streaming
// latency histograms and the queue-depth trajectory. All folding happens
// on the single-threaded environment path (AfterRound, ascending node
// order), so metrics are byte-identical across engine drivers and worker
// counts — the workload soak pins this.
type Metrics struct {
	// Rounds counts the rounds the environment observed.
	Rounds int
	// Offered counts plan arrivals presented; Accepted the ones enqueued;
	// Dropped the ones lost to the bounded queue (Offered = Accepted +
	// Dropped).
	Offered, Accepted, Dropped int
	// Bcasts counts broadcasts handed to the protocol layer, Acks the ones
	// acknowledged.
	Bcasts, Acks int
	// Sojourn is the arrival→ack latency histogram (queue wait plus
	// service) — the SLO the percentile columns come from. Service is the
	// bcast→ack portion alone.
	Sojourn, Service *stats.Histogram
	// DepthSum integrates total queue depth over rounds (mean depth =
	// DepthSum/Rounds); DepthMax is the deepest any single queue got.
	DepthSum int64
	DepthMax int
	// Depth is the sampled depth time series.
	Depth []DepthSample
}

// Config assembles a traffic run over an assembled protocol deployment.
type Config struct {
	// Plan is the arrival schedule; its N must match len(Services).
	Plan *Plan
	// Services are the per-node protocol endpoints (LBAlg or a baseline);
	// Traffic owns their OnAck callbacks.
	Services []core.Service
	// Capacity bounds each node's queue (messages); required ≥ 1.
	Capacity int
	// Policy selects the full-queue behaviour; default DropNewest.
	Policy DropPolicy
	// LatencyCap caps the latency histograms' unit bins; latencies at or
	// above it clamp into one overflow bin. Default 1 << 13 rounds.
	LatencyCap int
	// DepthEvery is the depth-series sampling stride in rounds; default
	// keeps the series at ≤ 64 points. Use 1 for a full trajectory.
	DepthEvery int
	// Inner is an optional wrapped environment, the same composition hook
	// as churn.InjectorConfig.Inner: it runs after this round's arrivals
	// and dispatches, so it observes the loaded world.
	Inner sim.Environment
}

// Traffic drives an open-loop offered load through the protocol layer: it
// implements sim.Environment (the same wrapper pattern as churn.Injector),
// delivering plan arrivals into per-node bounded queues each BeforeRound,
// dispatching the head of every idle node's queue as a Bcast, and folding
// completions into Metrics each AfterRound. Unlike core.SaturatingEnv the
// environment never waits for the protocol: arrivals keep coming at the
// offered rate whether or not the layer keeps up, which is what exposes
// the throughput/latency knee.
type Traffic struct {
	cfg      Config
	next     int     // next undelivered plan arrival
	cur      int     // round currently executing
	inflight []int32 // arrival round of the in-flight message; -1 idle
	sentAt   []int32 // round the in-flight Bcast was accepted
	ackedAt  []int32 // round of the pending unfolded ack; -1 none
	seq      []int32 // per-node payload sequence numbers
	queues   []queue
	depth    int // current total queued, kept incrementally
	m        Metrics
}

// NewTraffic validates the configuration and hooks every service's OnAck.
func NewTraffic(cfg Config) (*Traffic, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("workload: traffic needs a plan")
	}
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Plan.N != len(cfg.Services) {
		return nil, fmt.Errorf("workload: plan for %d nodes over %d services", cfg.Plan.N, len(cfg.Services))
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("workload: queue capacity %d must be ≥ 1", cfg.Capacity)
	}
	if cfg.Policy == 0 {
		cfg.Policy = DropNewest
	}
	if cfg.Policy != DropNewest && cfg.Policy != DropOldest {
		return nil, fmt.Errorf("workload: unknown drop policy %v", cfg.Policy)
	}
	if cfg.LatencyCap <= 0 {
		cfg.LatencyCap = 1 << 13
	}
	if cfg.DepthEvery <= 0 {
		cfg.DepthEvery = max(1, cfg.Plan.Rounds/64)
	}
	n := cfg.Plan.N
	tr := &Traffic{
		cfg:      cfg,
		inflight: make([]int32, n),
		sentAt:   make([]int32, n),
		ackedAt:  make([]int32, n),
		seq:      make([]int32, n),
		queues:   make([]queue, n),
		m: Metrics{
			Sojourn: stats.NewHistogram(cfg.LatencyCap),
			Service: stats.NewHistogram(cfg.LatencyCap),
		},
	}
	for u := 0; u < n; u++ {
		tr.inflight[u] = -1
		tr.ackedAt[u] = -1
		tr.queues[u] = newQueue(cfg.Capacity)
		tr.hook(u)
	}
	return tr, nil
}

// hook plants the ack callback on node u's service. The callback only
// writes the node's own slot — Receive may run concurrently across nodes
// under the worker-pool driver — and the slot is folded into the shared
// metrics on the single-threaded AfterRound path, in node order, so
// accumulation is deterministic on every driver.
func (tr *Traffic) hook(u int) {
	tr.cfg.Services[u].SetOnAck(func(core.Message) {
		tr.ackedAt[u] = int32(tr.cur)
	})
}

// Metrics returns the accumulated metrics (live; read after the run).
func (tr *Traffic) Metrics() *Metrics { return &tr.m }

// BeforeRound implements sim.Environment: deliver the round's arrivals
// into the queues, dispatch the head of every idle queue, then let the
// wrapped environment act on the loaded world.
func (tr *Traffic) BeforeRound(t int) {
	tr.cur = t
	arrivals := tr.cfg.Plan.Arrivals
	for tr.next < len(arrivals) && arrivals[tr.next].Round <= t {
		a := arrivals[tr.next]
		tr.next++
		tr.m.Offered++
		tr.enqueue(a.Node, int32(a.Round))
	}
	for u := range tr.queues {
		if tr.inflight[u] >= 0 || tr.queues[u].len() == 0 || tr.cfg.Services[u].Active() {
			continue
		}
		arrived, _ := tr.queues[u].pop()
		tr.depth--
		tr.seq[u]++
		if _, err := tr.cfg.Services[u].Bcast(fmt.Sprintf("load-%d-%d", u, tr.seq[u])); err != nil {
			// Unreachable while Traffic owns the service (Active was
			// false); re-queue defensively rather than lose the message.
			tr.queues[u].push(arrived)
			tr.depth++
			continue
		}
		tr.inflight[u] = arrived
		tr.sentAt[u] = int32(t)
		tr.m.Bcasts++
	}
	if tr.cfg.Inner != nil {
		tr.cfg.Inner.BeforeRound(t)
	}
}

// enqueue admits one arrival to node u's queue under the drop policy.
func (tr *Traffic) enqueue(u int, round int32) {
	q := &tr.queues[u]
	if q.push(round) {
		tr.m.Accepted++
		tr.depth++
		if d := q.len(); d > tr.m.DepthMax {
			tr.m.DepthMax = d
		}
		return
	}
	switch tr.cfg.Policy {
	case DropOldest:
		q.pop()
		q.push(round)
		tr.m.Accepted++
		tr.m.Dropped++ // the evicted head
	default: // DropNewest
		tr.m.Dropped++
	}
}

// AfterRound implements sim.Environment: fold this round's acks into the
// metrics in node order, advance the depth accounting, then let the
// wrapped environment observe the finished round.
func (tr *Traffic) AfterRound(t int) {
	for u := range tr.ackedAt {
		if tr.ackedAt[u] < 0 {
			continue
		}
		ack := int(tr.ackedAt[u])
		tr.ackedAt[u] = -1
		if tr.inflight[u] < 0 {
			continue // ack of a broadcast Traffic did not dispatch
		}
		tr.m.Acks++
		tr.m.Sojourn.Add(ack - int(tr.inflight[u]))
		tr.m.Service.Add(ack - int(tr.sentAt[u]))
		tr.inflight[u] = -1
	}
	tr.m.Rounds++
	tr.m.DepthSum += int64(tr.depth)
	if t%tr.cfg.DepthEvery == 0 {
		maxd := 0
		for u := range tr.queues {
			if d := tr.queues[u].len(); d > maxd {
				maxd = d
			}
		}
		tr.m.Depth = append(tr.m.Depth, DepthSample{Round: t, Total: tr.depth, Max: maxd})
	}
	if tr.cfg.Inner != nil {
		tr.cfg.Inner.AfterRound(t)
	}
}

var _ sim.Environment = (*Traffic)(nil)
