package main

// The traced matrix-small run: E-COMPARE, E-LOAD and E-CHURN rebuilt from the
// layers' own constructors with the exp World hooks mirrored statement for
// statement, plus timing wrappers. Its rows must reproduce the untraced
// rows exactly; the fingerprint comparison enforces that.

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/exp"
	"lbcast/internal/geo"
	"lbcast/internal/sim"
	"lbcast/internal/workload"
	"lbcast/internal/world"
)

// The exp matrices' small-size round budgets and queue capacity.
const (
	compareRoundsCap   = 150_000
	compareSpillVolume = 1 << 22
	loadRoundsCap      = 400_000
	loadMinRounds      = 20_000
	loadQueueCap       = 8
	churnRoundsCap     = 60_000
)

// loadPlan is E-LOAD's arrival plan for one (load, policy) cell: the load in
// the policy's own utilisation units over loadRounds of its ack window.
func loadPlan(n int, inst *world.Instance, load float64, seed uint64) (*workload.Plan, error) {
	return workload.Poisson(workload.PoissonConfig{
		N: n, Rounds: loadRounds(inst.AckWindow, loadRoundsCap), Rate: load / float64(inst.AckWindow),
		Seed: seed ^ math.Float64bits(load),
	})
}

func loadRounds(window, roundsCap int) int {
	return min(roundsCap, max(8*window, loadMinRounds)+64)
}

// churnSchedule is E-CHURN's round budget, per-round crash rate and
// validated fault plan for one load.
func churnSchedule(w *world.World, load float64, seed uint64) (rounds int, rate float64, plan *churn.Plan, err error) {
	n := w.Top.Dual.N()
	rounds = w.Window(churnRoundsCap)
	if load != 0 {
		rate = load / float64(rounds/2)
	}
	if rate == 0 {
		plan = churn.FixedScript(nil, nil, nil)
	} else {
		downtime := max(20, rounds/50)
		plan, err = churn.Poisson(churn.PoissonConfig{
			N: n, Rounds: rounds, Seed: seed ^ math.Float64bits(rate),
			CrashRate:    rate,
			MeanDowntime: downtime,
			LeaveRate:    rate / 4,
			MeanAbsence:  2 * downtime,
		})
		if err != nil {
			return 0, 0, nil, err
		}
	}
	return rounds, rate, plan, plan.Validate(n)
}

// matrixTracer holds a traced matrix run's recorder, memory reading and
// construction tally.
type matrixTracer struct {
	tr      *tracer
	traceMB float64 // largest forced-GC heap growth over one World run
	built   buildCounts
}

// newWorld instantiates the policies over top and tallies the World.
func (m *matrixTracer) newWorld(top *world.Topology, policies []world.Policy) (*world.World, error) {
	m.built.worlds++
	return world.New(top, policies, 1)
}

// worldSpans brackets one World.Run: world.build runs until the last Attach
// (topology, policy instances, services, engines), world.run until the
// first Finish, world.summarize until the last. The gaps between Configure
// calls and the first Attach are the engines' sim.New.
type worldSpans struct {
	m                *matrixTracer
	k                int
	build, run, summ int
	cfgEnd           int64
	heap0            float64
}

func (m *matrixTracer) world(k int) *worldSpans {
	return &worldSpans{m: m, k: k, build: m.tr.begin("world.build")}
}

func (h *worldSpans) configureStart(i int) {
	if i > 0 {
		h.m.tr.add("sim.new", "world.build", now()-h.cfgEnd)
	}
}

func (h *worldSpans) configureEnd() { h.cfgEnd = now() }

func (h *worldSpans) attach(i int) {
	if i == 0 {
		h.m.tr.add("sim.new", "world.build", now()-h.cfgEnd)
	}
	if i == h.k-1 {
		h.m.tr.end(h.build)
		h.heap0 = liveMB()
		h.run = h.m.tr.begin("world.run")
	}
}

func (h *worldSpans) finishStart(i int, e *sim.Engine) {
	if i == 0 {
		h.m.tr.end(h.run)
		h.m.traceMB = math.Max(h.m.traceMB, liveMB()-h.heap0)
		h.summ = h.m.tr.begin("world.summarize")
	}
	h.m.tr.engineDone(e)
}

func (h *worldSpans) finishEnd(i int) {
	if i == h.k-1 {
		h.m.tr.end(h.summ)
	}
}

// services builds n traced services of the instance (the protocol-state
// construction, core.bank).
func (m *matrixTracer) services(n int, inst *world.Instance, rt *roundTracer) ([]core.Service, []sim.Process) {
	m.built.services += n
	a := now()
	svcs := make([]core.Service, n)
	procs := make([]sim.Process, n)
	for u := 0; u < n; u++ {
		svcs[u] = &tracedService{Service: inst.NewService(u), u: u, rt: rt}
		procs[u] = svcs[u]
	}
	m.tr.add("core.bank", "world.build", now()-a)
	return svcs, procs
}

// channel applies the instance's physical layer as exp does, then wraps it.
func channel(cfg *sim.Config, inst *world.Instance, schedSeed uint64, rt *roundTracer) error {
	inst.Channel(cfg, schedSeed)
	var err error
	if cfg.Reception != nil {
		cfg.Reception, err = wrapReception(cfg.Reception, rt)
	} else {
		cfg.Sched, err = wrapSched(cfg.Sched, rt)
	}
	return err
}

func senderRange(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// topology builds a sweep topology under a dualgraph.build span.
func (m *matrixTracer) topology(n int, seed uint64) (*world.Topology, error) {
	m.built.topologies++
	sp := m.tr.begin("dualgraph.build")
	defer m.tr.end(sp)
	return world.NewSweepTopology(n, seed, matrixEps)
}

func (m *matrixTracer) comparison(seed uint64) ([]exp.ComparisonRow, error) {
	policies, err := world.Select(world.Names())
	if err != nil {
		return nil, err
	}
	var rows []exp.ComparisonRow
	for _, n := range compareSizes {
		r, err := m.comparisonPoint(n, seed, policies)
		if err != nil {
			return nil, fmt.Errorf("comparison n=%d: %w", n, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func (m *matrixTracer) comparisonPoint(n int, seed uint64, policies []world.Policy) ([]exp.ComparisonRow, error) {
	h := m.world(len(policies))
	top, err := m.topology(n, seed)
	if err != nil {
		return nil, err
	}
	w, err := m.newWorld(top, policies)
	if err != nil {
		return nil, err
	}
	rounds := w.Window(compareRoundsCap)
	senders := len(w.Senders())
	rows := make([]exp.ComparisonRow, 0, len(policies))
	err = w.Run(world.Hooks{
		Rounds: func(int) int { return rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			h.configureStart(i)
			defer h.configureEnd()
			rt := m.tr.newRound(n, p.Name)
			svcs, procs := m.services(n, inst, rt)
			cfg.Procs = procs
			env := &timedEnv{name: "core.env", inner: core.NewSaturatingEnv(svcs, senderRange(senders)), tr: m.tr}
			cfg.Env = &stepEnv{inner: env, rt: rt}
			cfg.Seed = world.EngineSeed(seed, i)
			return channel(cfg, inst, seed, rt)
		},
		Attach: func(i int, p world.Policy, e *sim.Engine) error {
			if int64(n)*int64(rounds) >= compareSpillVolume {
				if err := e.Trace().SpillToDisk(""); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: comparison trace spill disabled: %v\n", err)
				}
			}
			h.attach(i)
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			h.finishStart(i, e)
			defer h.finishEnd(i)
			row := world.Summarize(e.Trace(), rounds, inst.Neighbors)
			if err := e.Trace().SpillError(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: comparison trace spill degraded: %v\n", err)
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
	return rows, err
}

func (m *matrixTracer) load(seed uint64) ([]exp.LoadRow, []exp.ScenarioRow, error) {
	policies, err := world.Select(matrixTrio)
	if err != nil {
		return nil, nil, err
	}
	b := m.tr.begin("world.build")
	top, err := m.topology(loadN, seed)
	m.tr.end(b)
	if err != nil {
		return nil, nil, err
	}
	var rows []exp.LoadRow
	for _, load := range loadLevels {
		r, err := m.loadPoint(top, seed, load, policies)
		if err != nil {
			return nil, nil, fmt.Errorf("load=%v: %w", load, err)
		}
		rows = append(rows, r...)
	}
	srows, err := m.loadScenarios(top, seed, policies)
	return rows, srows, err
}

func (m *matrixTracer) loadPoint(top *world.Topology, seed uint64, load float64, policies []world.Policy) ([]exp.LoadRow, error) {
	h := m.world(len(policies))
	w, err := m.newWorld(top, policies)
	if err != nil {
		return nil, err
	}
	n := top.Dual.N()
	plans := make([]*workload.Plan, len(policies))
	for i, inst := range w.Instances {
		sp := m.tr.begin("workload.plan")
		plans[i], err = loadPlan(n, inst, load, seed)
		m.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	traffics := make([]*workload.Traffic, len(policies))
	rows := make([]exp.LoadRow, 0, len(policies))
	err = w.Run(world.Hooks{
		Rounds: func(i int) int { return plans[i].Rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			h.configureStart(i)
			defer h.configureEnd()
			rt := m.tr.newRound(n, p.Name)
			return m.configureLoadRun(cfg, inst, world.EngineSeed(seed, i), plans[i], loadQueueCap, workload.DropNewest, &traffics[i], rt)
		},
		Attach: func(i int, _ world.Policy, _ *sim.Engine) error {
			h.attach(i)
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			h.finishStart(i, e)
			defer h.finishEnd(i)
			row := world.SummarizeLoad(traffics[i].Metrics(), e.Trace(), plans[i])
			row.Load = load
			row.Rate = load / float64(inst.AckWindow)
			row.Algorithm = p.Name
			rows = append(rows, row)
			return nil
		},
	})
	return rows, err
}

func (m *matrixTracer) configureLoadRun(cfg *sim.Config, inst *world.Instance, engineSeed uint64, plan *workload.Plan,
	capacity int, policy workload.DropPolicy, traffic **workload.Traffic, rt *roundTracer) error {

	svcs, procs := m.services(plan.N, inst, rt)
	tr, err := workload.NewTraffic(workload.Config{
		Plan: plan, Services: svcs, Capacity: capacity, Policy: policy, LatencyCap: plan.Rounds,
	})
	if err != nil {
		return err
	}
	cfg.Procs = procs
	cfg.Env = &stepEnv{inner: &timedEnv{name: "workload.traffic", inner: tr, tr: m.tr}, rt: rt}
	cfg.Seed = engineSeed
	*traffic = tr
	return channel(cfg, inst, engineSeed, rt)
}

func (m *matrixTracer) loadScenarios(top *world.Topology, seed uint64, policies []world.Policy) ([]exp.ScenarioRow, error) {
	b := m.tr.begin("world.build")
	w, err := m.newWorld(top, policies)
	m.tr.end(b)
	if err != nil {
		return nil, err
	}
	fi := fastest(w)
	fast, fastInst := w.Policies[fi], w.Instances[fi]
	rounds := loadRounds(fastInst.AckWindow, loadRoundsCap)
	n := top.Dual.N()
	var rows []exp.ScenarioRow
	for _, name := range workload.ScenarioNames() {
		b := m.tr.begin("world.build")
		sp := m.tr.begin("workload.plan")
		sc, err := workload.BuildScenario(name, n, rounds, seed)
		m.tr.end(sp)
		if err != nil {
			return nil, err
		}
		cfg := sim.Config{Dual: top.Dual}
		var traffic *workload.Traffic
		rt := m.tr.newRound(n, fast.Name)
		if err := m.configureLoadRun(&cfg, fastInst, seed, sc.Plan, sc.Capacity, sc.Policy, &traffic, rt); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sp = m.tr.begin("sim.new")
		engine, err := sim.New(cfg)
		m.tr.end(sp)
		m.tr.end(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		heap0 := liveMB()
		r := m.tr.begin("world.run")
		engine.Run(sc.Plan.Rounds)
		m.tr.end(r)
		m.traceMB = math.Max(m.traceMB, liveMB()-heap0)
		s := m.tr.begin("world.summarize")
		m.tr.engineDone(engine)
		row := world.SummarizeLoad(traffic.Metrics(), engine.Trace(), sc.Plan)
		row.Rate = sc.Plan.OfferedLoad()
		row.Load = row.Rate * float64(fastInst.AckWindow)
		row.Algorithm = fast.Name
		m.tr.end(s)
		rows = append(rows, exp.ScenarioRow{Scenario: name, Policy: sc.Policy.String(), Capacity: sc.Capacity, LoadRow: row})
	}
	return rows, nil
}

func (m *matrixTracer) churn(seed uint64) ([]exp.ChurnRow, error) {
	policies, err := world.Select(matrixTrio)
	if err != nil {
		return nil, err
	}
	var rows []exp.ChurnRow
	for _, load := range churnLoads {
		r, err := m.churnPoint(seed, load, policies)
		if err != nil {
			return nil, fmt.Errorf("churn load=%v: %w", load, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func (m *matrixTracer) churnPoint(seed uint64, load float64, policies []world.Policy) ([]exp.ChurnRow, error) {
	n := churnN
	h := m.world(len(policies))
	top, err := m.topology(n, seed)
	if err != nil {
		return nil, err
	}
	w, err := m.newWorld(top, policies)
	if err != nil {
		return nil, err
	}
	senders := len(w.Senders())
	sp := m.tr.begin("churn.plan")
	rounds, rate, plan, err := churnSchedule(w, load, seed)
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	planStats := plan.Stats(n, rounds)
	injs := make([]*churn.Injector, len(policies))
	duals := make([]*dualgraph.Dual, len(policies))
	rows := make([]exp.ChurnRow, 0, len(policies))
	err = w.Run(world.Hooks{
		Rounds: func(int) int { return rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			h.configureStart(i)
			defer h.configureEnd()
			m.built.clones++
			sp := m.tr.begin("dualgraph.build")
			d, err := top.Clone()
			m.tr.end(sp)
			if err != nil {
				return err
			}
			rt := m.tr.newRound(n, p.Name)
			svcs, procs := m.services(n, inst, rt)
			sat := core.NewSaturatingEnv(svcs, senderRange(senders))
			inner := &timedEnv{name: "core.env", inner: sat, tr: m.tr}
			inj, err := churn.NewInjector(churn.InjectorConfig{
				Plan: plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
				Policy: dualgraph.GreyUnreliable,
				Restart: func(u int) sim.Process {
					svcs[u] = &tracedService{Service: inst.NewService(u), u: u, rt: rt}
					return svcs[u]
				},
				Inner:      inner,
				OnRestart:  func(u int, _ sim.Process) { sat.Rearm(u) },
				OnTopology: func() error { m.tr.patches++; return nil },
			})
			if err != nil {
				return err
			}
			if err := inj.Detach(); err != nil {
				return err
			}
			injs[i], duals[i] = inj, d
			cfg.Dual = d
			cfg.Procs = procs
			cfg.Env = &stepEnv{inner: &timedEnv{name: "churn.injector", inner: inj, child: inner, tr: m.tr}, rt: rt}
			cfg.Seed = world.EngineSeed(seed, i)
			return channel(cfg, inst, seed, rt)
		},
		Attach: func(i int, p world.Policy, e *sim.Engine) error {
			injs[i].Attach(e)
			h.attach(i)
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			h.finishStart(i, e)
			defer h.finishEnd(i)
			if err := injs[i].Err(); err != nil {
				return err
			}
			sp := m.tr.begin("dualgraph.validate")
			err := duals[i].Validate()
			m.tr.end(sp)
			if err != nil {
				return fmt.Errorf("patched dual invalid after run: %w", err)
			}
			row := exp.ChurnRow{
				ComparisonRow: world.Summarize(e.Trace(), rounds, inst.Neighbors),
				Load:          load,
				CrashRate:     rate,
				LeaveRate:     rate / 4,
				Crashes:       planStats.Crashes,
				Recovers:      planStats.Recovers,
				Leaves:        planStats.Leaves,
				Joins:         planStats.Joins,
			}
			row.DownFraction = float64(planStats.DownNodeRounds) / (float64(n) * float64(rounds))
			row.Topology = "sweep-geometric"
			row.N = n
			row.Algorithm = p.Name
			row.Model = p.Model
			row.Senders = senders
			rows = append(rows, row)
			return nil
		},
	})
	return rows, err
}

// run runs the three traced experiments and returns their rows.
func (m *matrixTracer) run(seed uint64) (*matrixRows, error) {
	rows := &matrixRows{}
	var err error
	if rows.Compare, err = m.comparison(seed); err != nil {
		return nil, err
	}
	if rows.Load, rows.Scenarios, err = m.load(seed); err != nil {
		return nil, err
	}
	if rows.Churn, err = m.churn(seed); err != nil {
		return nil, err
	}
	return rows, nil
}

func traceMatrix(seed uint64, budget time.Duration) (*outcome, error) {
	start := time.Now()
	ref, refNs, failed, err := timedMatrix(seed)
	if err != nil {
		return nil, err
	}
	refFP, err := ref.fingerprint()
	if err != nil {
		return nil, err
	}
	nc, nl, nch := expectedRows()
	out := &outcome{metrics: newMetricSet(), fp: refFP, attempted: nc + nl + nch, failed: failed}
	// The untraced run's set-up builds with buildMatrix; the mirror, whose
	// rows are checked against exp's, must build as much.
	b, err := buildMatrix(seed)
	if err != nil {
		return nil, err
	}
	want := b.counts()
	m := &matrixTracer{tr: newTracer()}
	var tracedNs int64
	var alloc uint64
	reps := 0
	err = repeat(budget-time.Since(start), func() error {
		m.built = buildCounts{}
		a0 := totalAlloc()
		t := now()
		rows, err := m.run(seed)
		if err != nil {
			return err
		}
		tracedNs += now() - t
		alloc += totalAlloc() - a0
		reps++
		if m.built != want {
			out.problems = append(out.problems, fmt.Sprintf("set-up builds %+v, the traced mirror of exp %+v", want, m.built))
		}
		fp, err := rows.fingerprint()
		if err != nil {
			return err
		}
		if fp != refFP {
			out.problems = append(out.problems, fmt.Sprintf("traced fingerprint %#x differs from untraced %#x", fp, refFP))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr, ms := m.tr, out.metrics
	rounds := float64(tr.rounds)
	over := (float64(tracedNs) - float64(reps)*float64(refNs)) / rounds
	layerTable(tr, ms, over, alloc)
	construction(tr, ms, reps, "dualgraph.build")
	ms.add("sim.trace_mb", "MB", m.traceMB, "largest forced-GC heap growth over one World run")
	per := func(name string) float64 { return seconds(tr.total(name)) / float64(reps) }
	for _, name := range []string{"world.build", "world.run", "world.summarize", "workload.plan", "churn.plan", "dualgraph.validate"} {
		ms.add(name+"_s", "s", per(name), "per matrix")
	}
	var policies []string
	for name := range tr.agg {
		if p, ok := strings.CutPrefix(name, "world.policy."); ok {
			policies = append(policies, p)
		}
	}
	sort.Strings(policies)
	for _, p := range policies {
		ms.add("world.policy_s."+p, "s", per("world.policy."+p), "engine time per matrix")
	}
	ms.add("churn.patches", "count", float64(tr.patches)/float64(reps), "topology patches per matrix")
	return out, tr.write(spanPath("matrix-small", seed))
}
