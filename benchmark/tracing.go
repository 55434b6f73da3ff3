package main

// This file is the traced run's instrumentation: a span recorder and the
// timing wrappers placed around each layer's calls. The wrappers live in the
// benchmark, never in the program, so the untraced run measures the program
// as users run it. Each wrapper exposes exactly the optional engine
// interfaces the wrapped value exposes, so the engine keeps its fast paths;
// checkInterfaces enforces that. Wrappers keep plain counters: the benchmark
// drives every engine with the sequential driver, one engine at a time.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lbcast/internal/core"
	"lbcast/internal/sim"
)

// span is one timed call: name, host start and end in ns since process
// start, and the index of the enclosing span (-1 at top level).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// aggregate folds the many per-round spans of one name (rounds run into the
// millions) into a count and a total, under the name of their parent span.
type aggregate struct {
	Parent string `json:"parent"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
}

// tracer records the coarse spans of a traced run (construction, World
// runs) individually and the per-round phase spans as aggregates, and sums
// the engines' simulated counters.
type tracer struct {
	spans []span
	open  []int // stack of open span indices
	agg   map[string]*aggregate

	// Simulated counters over every traced engine.
	rounds, tx, deliveries, collisions, events int64
	schedCalls                                 int64
	patches                                    int64
}

func newTracer() *tracer { return &tracer{agg: map[string]*aggregate{}} }

// begin opens a coarse span and returns its index for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: now(), Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int) {
	t.spans[i].End = now()
	t.open = t.open[:len(t.open)-1]
}

// add folds d ns into the named aggregate.
func (t *tracer) add(name, parent string, d int64) {
	a := t.agg[name]
	if a == nil {
		a = &aggregate{Parent: parent}
		t.agg[name] = a
	}
	a.Count++
	a.Total += d
}

// total returns the summed ns of a coarse span name plus the aggregate of
// the same name.
func (t *tracer) total(name string) int64 {
	var s int64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	if a := t.agg[name]; a != nil {
		s += a.Total
	}
	return s
}

// engineDone folds a finished engine's simulated counters.
func (t *tracer) engineDone(e *sim.Engine) {
	tr := e.Trace()
	t.rounds += int64(tr.RoundsRun)
	t.tx += int64(tr.Transmissions)
	t.deliveries += int64(tr.Deliveries)
	t.collisions += int64(tr.Collisions)
	t.events += int64(tr.Len())
}

// write stores the spans and aggregates as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans      []span                `json:"spans"`
		Aggregates map[string]*aggregate `json:"aggregates"`
	}{t.spans, t.agg})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// roundTracer times the phases of one engine's rounds. Stamps are taken at
// the layer boundaries the wrappers see; at the end of a round they are
// folded into the tracer's per-round aggregates:
//
//	sim.step      whole Step
//	core.transmit protocol transmit phase
//	sim.scatter   end of transmit → start of receive, minus scheduler and
//	              reception-model time (transmitter list, inclusion, scatter)
//	sched         link-scheduler calls
//	sinr.resolve  reception-model calls
//	core.receive  protocol receive phase, minus benchmark callbacks
//	lbcast.callback benchmark bookkeeping in OnReceive/OnAck
//	sim.drain     end of receive → end of Step (stats, recorder drain)
//	env           environment hooks
type roundTracer struct {
	tr     *tracer
	policy string // World policy name; "" outside the matrix
	n      int

	round                                        int
	stepStart, txStart, txEnd, phyStart, rxStart int64
	rxEnd                                        int64
	txRound, phyRound, rxRound, rxEndRound       int
	schedNs, sinrNs, envNs, cbNs                 int64
}

func (t *tracer) newRound(n int, policy string) *roundTracer {
	return &roundTracer{tr: t, n: n, policy: policy}
}

// begin opens round r at host time ts.
func (rt *roundTracer) begin(r int, ts int64) {
	rt.round, rt.stepStart = r, ts
	rt.schedNs, rt.sinrNs, rt.envNs, rt.cbNs = 0, 0, 0, 0
}

// phy stamps the first physical-layer call (scheduler or reception model)
// of round t: the end of the transmit phase on the per-node path.
func (rt *roundTracer) phy(t int, ts int64) {
	if rt.phyRound != t {
		rt.phyRound, rt.phyStart = t, ts
	}
}

// finishBank closes a round stepped through a process bank, whose wrapper
// stamped the exact transmit and receive phase bounds.
func (rt *roundTracer) finishBank(ts int64) {
	tr := rt.tr
	tr.add("sim.step", "", ts-rt.stepStart)
	tr.add("sim.scatter", "sim.step", rt.rxStart-rt.txEnd-rt.schedNs-rt.sinrNs)
	tr.add("sim.drain", "sim.step", ts-rt.rxEnd)
	rt.fold()
}

// finishPerNode closes a round of per-node processes at the start of the
// environment's AfterRound (afterStart) and its end (ts). A phase whose
// boundary stamp is missing this round (its first node was down) gets zero.
func (rt *roundTracer) finishPerNode(afterStart, ts int64) {
	t := rt.round
	rxS, rxE := afterStart, afterStart
	if rt.rxRound == t {
		rxS = rt.rxStart
	}
	if rt.rxEndRound == t {
		rxE = rt.rxEnd
	}
	phyS := rxS
	if rt.phyRound == t {
		phyS = rt.phyStart
	}
	txS := phyS
	if rt.txRound == t {
		txS = rt.txStart
	}
	tr := rt.tr
	tr.add("sim.step", "world.run", ts-rt.stepStart)
	tr.add("core.transmit", "sim.step", phyS-txS)
	tr.add("sim.scatter", "sim.step", rxS-phyS-rt.schedNs-rt.sinrNs)
	tr.add("core.receive", "sim.step", rxE-rxS)
	tr.add("sim.drain", "sim.step", afterStart-rxE)
	if rt.policy != "" {
		tr.add("world.policy."+rt.policy, "world.run", ts-rt.stepStart)
	}
	rt.fold()
}

func (rt *roundTracer) fold() {
	tr := rt.tr
	tr.add("sched", "sim.step", rt.schedNs)
	tr.add("sinr.resolve", "sim.step", rt.sinrNs)
	tr.add("lbcast.callback", "sim.step", rt.cbNs)
	tr.add("env", "sim.step", rt.envNs)
}

// step runs one traced round of a bank-driven engine.
func (rt *roundTracer) step(e *sim.Engine) {
	rt.begin(e.Round()+1, now())
	e.Step()
	rt.finishBank(now())
}

// callback times benchmark bookkeeping run inside a protocol callback.
func (rt *roundTracer) callback(fn func()) {
	a := now()
	fn()
	rt.cbNs += now() - a
}

// tracedBank times a process bank's phases.
type tracedBank struct {
	inner sim.ProcessBank
	rt    *roundTracer
}

func (b *tracedBank) TransmitRange(t, lo, hi int, v *sim.RoundView) {
	rt := b.rt
	a, cb := now(), rt.cbNs
	b.inner.TransmitRange(t, lo, hi, v)
	rt.txEnd = now()
	rt.tr.add("core.transmit", "sim.step", rt.txEnd-a-(rt.cbNs-cb))
}

func (b *tracedBank) ReceiveRange(t, lo, hi int, v *sim.RoundView) {
	rt := b.rt
	rt.rxStart = now()
	cb := rt.cbNs
	b.inner.ReceiveRange(t, lo, hi, v)
	rt.rxEnd = now()
	rt.tr.add("core.receive", "sim.step", rt.rxEnd-rt.rxStart-(rt.cbNs-cb))
}

// wrapBank returns the traced bank; checkInterfaces rejects a bank that
// also bulk-records (RoundFlusher), which the wrapper does not mirror.
func wrapBank(bank sim.ProcessBank, rt *roundTracer) (sim.ProcessBank, error) {
	w := &tracedBank{inner: bank, rt: rt}
	return w, checkInterfaces(bank, w)
}

// fullScheduler is the scheduler surface the engine's fast paths use.
type fullScheduler interface {
	sim.BatchLinkScheduler
	sim.SparseLinkScheduler
}

// tracedSched times a link scheduler that has both fast paths (every
// scheduler the workloads use); checkInterfaces rejects any other.
type tracedSched struct {
	inner fullScheduler
	rt    *roundTracer
}

func (s *tracedSched) timed(t int, a int64) {
	rt := s.rt
	d := now() - a
	rt.phy(t, a)
	rt.schedNs += d
	rt.tr.schedCalls++
}

func (s *tracedSched) Included(t, edge int) bool {
	a := now()
	v := s.inner.Included(t, edge)
	s.timed(t, a)
	return v
}

func (s *tracedSched) IncludedBatch(t int, mask []bool) {
	a := now()
	s.inner.IncludedBatch(t, mask)
	s.timed(t, a)
}

func (s *tracedSched) Uniform(t int) (bool, bool) {
	a := now()
	v, ok := s.inner.Uniform(t)
	s.timed(t, a)
	return v, ok
}

func (s *tracedSched) IncludedFor(t int, edges []int32, out []bool) {
	a := now()
	s.inner.IncludedFor(t, edges, out)
	s.timed(t, a)
}

func wrapSched(s sim.LinkScheduler, rt *roundTracer) (sim.LinkScheduler, error) {
	full, ok := s.(fullScheduler)
	if !ok {
		return nil, fmt.Errorf("traced run: scheduler %T lacks a fast path the wrapper mirrors", s)
	}
	w := &tracedSched{inner: full, rt: rt}
	return w, checkInterfaces(s, w)
}

// tracedReception times a sharded reception model (the SINR model).
type tracedReception struct {
	inner sim.ShardedReceptionModel
	rt    *roundTracer
}

func (m *tracedReception) timed(t int, a int64) {
	m.rt.phy(t, a)
	m.rt.sinrNs += now() - a
}

func (m *tracedReception) Resolve(t int, txs []int32, out []int32) {
	a := now()
	m.inner.Resolve(t, txs, out)
	m.timed(t, a)
}

func (m *tracedReception) PrepareRound(t int, txs []int32) bool {
	a := now()
	ok := m.inner.PrepareRound(t, txs)
	m.timed(t, a)
	return ok
}

func (m *tracedReception) ResolveRange(t int, txs []int32, out []int32, lo, hi int) {
	a := now()
	m.inner.ResolveRange(t, txs, out, lo, hi)
	m.timed(t, a)
}

func wrapReception(r sim.ReceptionModel, rt *roundTracer) (sim.ReceptionModel, error) {
	sh, ok := r.(sim.ShardedReceptionModel)
	if !ok {
		return nil, fmt.Errorf("traced run: reception model %T is not sharded", r)
	}
	w := &tracedReception{inner: sh, rt: rt}
	return w, checkInterfaces(r, w)
}

// checkInterfaces reports an error unless wrapper implements exactly the
// optional engine interfaces orig implements: a mismatch would switch the
// engine onto a different code path and measure something else.
func checkInterfaces(orig, wrapper any) error {
	probes := []struct {
		name string
		has  func(any) bool
	}{
		{"BatchLinkScheduler", func(v any) bool { _, ok := v.(sim.BatchLinkScheduler); return ok }},
		{"SparseLinkScheduler", func(v any) bool { _, ok := v.(sim.SparseLinkScheduler); return ok }},
		{"TransmitterAware", func(v any) bool { _, ok := v.(sim.TransmitterAware); return ok }},
		{"RoundFlusher", func(v any) bool { _, ok := v.(sim.RoundFlusher); return ok }},
		{"ShardedReceptionModel", func(v any) bool { _, ok := v.(sim.ShardedReceptionModel); return ok }},
	}
	for _, p := range probes {
		if p.has(orig) != p.has(wrapper) {
			return fmt.Errorf("traced run: %T wraps %T but differs on %s", wrapper, orig, p.name)
		}
	}
	return nil
}

// stepEnv is the outermost environment of a per-node engine: its hooks
// bracket every round, so it opens and closes the round's phase stamps.
type stepEnv struct {
	inner sim.Environment
	rt    *roundTracer
}

func (e *stepEnv) BeforeRound(t int) {
	a := now()
	e.rt.begin(t, a)
	e.inner.BeforeRound(t)
	e.rt.envNs += now() - a
}

func (e *stepEnv) AfterRound(t int) {
	a := now()
	e.inner.AfterRound(t)
	b := now()
	e.rt.envNs += b - a
	e.rt.finishPerNode(a, b)
}

// timedEnv attributes an environment's hook time to a named layer; child is
// a timedEnv nested inside it, whose time is subtracted (self time).
type timedEnv struct {
	name  string
	inner sim.Environment
	child *timedEnv
	tr    *tracer
	last  int64
}

func (e *timedEnv) hook(f func(int), t int) {
	a := now()
	var c int64
	if e.child != nil {
		c = e.child.last
	}
	f(t)
	e.last = now() - a
	self := e.last
	if e.child != nil {
		self -= e.child.last - c
	}
	e.tr.add(e.name, "sim.step", self)
}

func (e *timedEnv) BeforeRound(t int) { e.hook(e.inner.BeforeRound, t) }
func (e *timedEnv) AfterRound(t int)  { e.hook(e.inner.AfterRound, t) }

// tracedService stamps the first transmit and receive call of each round and
// the receive call of the last node, bounding the per-node phases.
type tracedService struct {
	core.Service
	u  int
	rt *roundTracer
}

func (s *tracedService) Transmit(t int) (any, bool) {
	if rt := s.rt; rt.txRound != t {
		rt.txRound, rt.txStart = t, now()
	}
	return s.Service.Transmit(t)
}

func (s *tracedService) Receive(t, from int, payload any, ok bool) {
	rt := s.rt
	if rt.rxRound != t {
		rt.rxRound, rt.rxStart = t, now()
	}
	s.Service.Receive(t, from, payload, ok)
	if s.u == rt.n-1 {
		rt.rxEnd, rt.rxEndRound = now(), t
	}
}

// layerTable turns a traced run's spans and aggregates into metrics. overNs
// is the traced minus untraced host time per round; bytes the allocation
// delta over the traced work.
func layerTable(tr *tracer, ms *metricSet, overNs float64, allocBytes uint64) {
	rounds := float64(max(tr.rounds, 1))
	perRound := func(name string) float64 { return float64(tr.total(name)) / rounds / 1e3 }
	step := perRound("sim.step")
	explained := 0.0
	for _, name := range []string{"core.transmit", "sim.scatter", "sched", "sinr.resolve", "core.receive", "lbcast.callback", "sim.drain", "env"} {
		explained += perRound(name)
	}
	ms.add("sim.step_us", "us", step, fmt.Sprintf("%d rounds", tr.rounds))
	ms.add("core.transmit_us", "us", perRound("core.transmit"), "")
	ms.add("core.receive_us", "us", perRound("core.receive"), "callbacks excluded")
	ms.add("sim.scatter_us", "us", perRound("sim.scatter"), "")
	ms.add("sim.drain_us", "us", perRound("sim.drain"), "")
	ms.add("sched.us", "us", perRound("sched"), "")
	ms.add("sched.calls", "count", float64(tr.schedCalls)/rounds, "per round")
	ms.add("sim.tx_per_round", "count", float64(tr.tx)/rounds, "")
	ms.add("sim.deliveries_per_round", "count", float64(tr.deliveries)/rounds, "")
	ms.add("sim.delivery_ratio", "ratio", float64(tr.deliveries)/float64(max(tr.deliveries+tr.collisions, 1)), "deliveries/(deliveries+collisions)")
	ms.add("sim.events_per_round", "count", float64(tr.events)/rounds, "trace events")
	ms.add("sim.alloc_b_per_round", "B", float64(allocBytes)/rounds, "")
	ms.add("trace.overhead_us", "us", overNs/1e3, "traced − untraced host time per round")
	ms.add("trace.unexplained_pct", "%", 100*(step-explained)/step, "share of sim.step_us outside the named layers")
	// Layers only some workloads run, printed where they did.
	for _, name := range []string{"sinr.resolve", "lbcast.callback", "core.env", "workload.traffic", "churn.injector"} {
		if a := tr.agg[name]; a != nil && a.Total > 0 {
			ms.add(name+"_us", "us", perRound(name), "")
		}
	}
}
