package main

// The traced mirror of lbcast's assembly shared by the two API workloads,
// and the per-repetition construction figures every traced run reports.

import (
	"fmt"

	"lbcast"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
)

// bankStack is the traced mirror of lbcast's assembly: the parameters, phase
// plan, state bank, default scheduler (random ½, seed 1) and sequential
// engine lbcast builds, with timing wrappers around the bank and scheduler.
type bankStack struct {
	eng  *sim.Engine
	bank *core.NodeStateBank
	rt   *roundTracer
	p    core.Params
}

func (s *bankStack) Broadcast(node int, payload any) (lbcast.MessageID, error) {
	return s.bank.Node(node).Bcast(payload)
}
func (s *bankStack) Step()      { s.rt.step(s.eng) }
func (s *bankStack) Round() int { return s.eng.Round() }

// newBankStack assembles the traced stack over d. onRecv and onAck are the
// client's handlers, timed as benchmark bookkeeping. It records the
// core.bank and sim.new spans and the bank's heap share.
func newBankStack(d *dualgraph.Dual, eps float64, seed uint64, tr *tracer, ms *metricSet,
	onRecv func(node int, id sim.MsgID, round int), onAck func(id sim.MsgID, round int)) (*bankStack, error) {

	params, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, eps, core.WithSeedEveryKPhases(1))
	if err != nil {
		return nil, err
	}
	s := &bankStack{p: params, rt: tr.newRound(d.N(), "")}
	heap0 := liveMB()
	sp := tr.begin("core.bank")
	s.bank = core.NewNodeStateBank(core.NewPhasePlan(params), d.N())
	tr.end(sp)
	ms.add("core.bank_mb", "MB", liveMB()-heap0, "forced-GC heap delta")
	for u := 0; u < d.N(); u++ {
		node := u
		s.bank.Node(u).SetOnRecv(func(m core.Message, _ int) {
			s.rt.callback(func() { onRecv(node, m.ID, s.eng.Round()) })
		})
		s.bank.Node(u).SetOnAck(func(m core.Message) {
			s.rt.callback(func() { onAck(m.ID, s.eng.Round()) })
		})
	}
	bank, err := wrapBank(s.bank, s.rt)
	if err != nil {
		return nil, err
	}
	sch, err := wrapSched(sched.NewRandom(0.5, 1), s.rt)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sim.new")
	s.eng, err = sim.New(sim.Config{Dual: d, Procs: s.bank.Procs(), Bank: bank, Sched: sch,
		Seed: seed, Driver: sim.DriverSequential})
	tr.end(sp)
	return s, err
}

// tracedRun drives a traced stack with run and adds the run's memory and
// allocation figures; it returns the host time of the stepping loop.
func tracedRun(s *bankStack, tr *tracer, ms *metricSet, run func() error) (int64, uint64, error) {
	heap0 := liveMB()
	a0 := totalAlloc()
	t := now()
	if err := run(); err != nil {
		return 0, 0, err
	}
	runNs := now() - t
	alloc := totalAlloc() - a0
	ms.add("sim.trace_mb", "MB", liveMB()-heap0, "forced-GC heap growth over the run")
	tr.engineDone(s.eng)
	return runNs, alloc, nil
}

// construction adds the traced construction spans as per-repetition means:
// the named topology spans sum into dualgraph.build_s.
func construction(tr *tracer, ms *metricSet, reps int, topology ...string) {
	per := func(name string) float64 { return seconds(tr.total(name)) / float64(reps) }
	build := 0.0
	for _, name := range topology {
		build += per(name)
		if name != "dualgraph.build" {
			ms.add(name+"_s", "s", per(name), "")
		}
	}
	ms.add("dualgraph.build_s", "s", build, "topology construction")
	ms.add("core.bank_s", "s", per("core.bank"), "protocol state construction")
	ms.add("sim.new_s", "s", per("sim.new"), "sim.New, incl. every node's Init")
}

// spanPath is where a traced run writes its spans, inside the build
// directory the wrapper script uses.
func spanPath(workload string, seed uint64) string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.json", workload, seed)
}
