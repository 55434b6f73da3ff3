package chaos

import (
	"fmt"
	"math"

	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/lbspec"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/sinr"
	"lbcast/internal/xrand"
)

// GenOptions bounds scenario generation.
type GenOptions struct {
	// MaxN caps the node count (minimum 24; 0 means 64).
	MaxN int
	// Fault seeds an observation-layer fault into the scenario, turning it
	// into a known-violating canary for the detect-shrink-replay loop.
	Fault bool
}

// Generate derives a complete scenario from one master seed. Equal inputs
// produce equal scenarios; everything downstream (topology, schedulers,
// engine randomness) then derives from the scenario's own Seed.
func Generate(master uint64, opt GenOptions) (*Scenario, error) {
	rng := xrand.New(master).Split(0xC4A05)
	maxN := opt.MaxN
	if maxN < 24 {
		maxN = 64
	}
	sc := &Scenario{
		Schema:  SchemaV1,
		Seed:    master,
		N:       24 + rng.Intn(maxN-23),
		Eps:     0.2,
		Senders: 4,
	}
	if sc.Senders > sc.N/4 {
		sc.Senders = max(1, sc.N/4)
	}
	if rng.Coin(0.25) {
		sc.Model = ModelSINR
	} else {
		sc.Model = ModelDualgraph
		switch rng.Intn(4) {
		case 0:
			sc.Sched = SchedRandom
			sc.SchedP = []float64{0.3, 0.5, 0.7}[rng.Intn(3)]
		case 1:
			sc.Sched = SchedPeriodic
		case 2:
			sc.Sched = SchedAntiDecay
		case 3:
			sc.Sched = SchedAdaptive
			sc.AdaptTarget = sc.N - 1 - rng.Intn(sc.N-sc.Senders)
		}
	}

	// The plan horizon and fault windows need the protocol schedule, which
	// is a function of the topology this scenario will build.
	d, p, err := buildTopology(sc)
	if err != nil {
		return nil, fmt.Errorf("chaos: generate seed %d: %w", master, err)
	}

	if opt.Fault {
		if rng.Coin(0.5) {
			// The deadline of a broadcast from the first rounds must expire
			// inside the run for the dropped ack to surface.
			sc.Fault = &FaultSpec{Kind: FaultDropAck, Node: rng.Intn(sc.Senders)}
			sc.Phases = p.Tack + 3
		} else {
			sc.Fault = &FaultSpec{Kind: FaultPhantomRecv, Node: rng.Intn(sc.Senders),
				Round: 2 + rng.Intn(62)}
			sc.Phases = 3
		}
	} else {
		sc.Phases = 4 + rng.Intn(5)
	}

	rounds := sc.Phases * p.PhaseLen()
	leaveRate := 0.125 / float64(rounds)
	if sc.Model == ModelSINR {
		leaveRate = 0 // Leave/Join patch the dual graph; SINR runs take crash/recover only
	}
	plan, err := churn.Poisson(churn.PoissonConfig{
		N: sc.N, Rounds: rounds, Seed: master ^ 0xDA7A,
		CrashRate:    0.5 / float64(rounds),
		MeanDowntime: max(1, p.PhaseLen()/2),
		LeaveRate:    leaveRate,
		MeanAbsence:  p.PhaseLen(),
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: generate seed %d: %w", master, err)
	}
	if sc.Fault != nil {
		// Churn on the fault node could excuse the very span the fault is
		// meant to break; keep the canary deterministic.
		kept := plan.Events[:0]
		for _, ev := range plan.Events {
			if ev.Node != sc.Fault.Node {
				kept = append(kept, ev)
			}
		}
		plan.Events = kept
	}
	if sc.Model == ModelDualgraph && rng.Coin(0.5) {
		u, v := rng.Intn(sc.N), rng.Intn(sc.N)
		plan.Fades = []churn.Fade{{Start: rounds / 4, End: rounds / 2,
			Regions: []geo.RegionID{geo.RegionOf(d.Emb[u]), geo.RegionOf(d.Emb[v])}}}
	}
	if !plan.Empty() {
		sc.Plan = plan
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: generated scenario invalid: %w", err)
	}
	return sc, nil
}

// RunOptions select the execution strategy of one scenario run.
type RunOptions struct {
	// Driver/Workers select the engine driver (DriverSequential default).
	Driver  sim.Driver
	Workers int
}

// Result is the verdict of one scenario run.
type Result struct {
	// PhaseLen is the derived protocol phase length in rounds.
	PhaseLen int
	// Rounds is how many rounds actually executed (early exit stops at the
	// end of the first violating phase); Planned is Phases × PhaseLen.
	Rounds, Planned int
	// Report is the monitor's Check-shaped report at the end of the run.
	Report *lbspec.Report
	// Violations are the retained violation records; Total counts all of
	// them, past any retention cap.
	Violations []lbspec.Violation
	Total      int
}

// buildTopology constructs the scenario's constant-density geometric dual.
// Under SINR the grey-zone reach is widened to cover the isolation
// reception range (≈1.77 at unit power), so every physically decodable
// reception is a G′ edge and the monitor's validity check stays sound.
func buildTopology(sc *Scenario) (*dualgraph.Dual, core.Params, error) {
	side := math.Max(4, math.Sqrt(float64(sc.N)/4))
	r := 1.5
	if sc.Model == ModelSINR {
		r = 1.8
	}
	d, err := dualgraph.RandomGeometric(sc.N, side, side, r, dualgraph.GreyUnreliable, xrand.New(sc.Seed))
	if err != nil {
		return nil, core.Params{}, err
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, sc.Eps)
	if err != nil {
		return nil, core.Params{}, err
	}
	return d, p, nil
}

// faultView sits between the engine trace and the monitor's trace, copying
// each round's new events while applying the scenario's FaultSpec. The
// execution reads only the engine trace, so the fault perturbs observation,
// never behavior.
type faultView struct {
	spec      FaultSpec
	src, dst  *sim.Trace
	inner     sim.Environment
	copied    int
	lastBcast sim.MsgID
	haveBcast bool
	injected  bool
}

func (f *faultView) BeforeRound(t int) { f.inner.BeforeRound(t) }

func (f *faultView) AfterRound(t int) {
	for ; f.copied < f.src.Len(); f.copied++ {
		ev := f.src.At(f.copied)
		if f.spec.Kind == FaultDropAck && ev.Kind == sim.EvAck && ev.Node == f.spec.Node {
			continue
		}
		if ev.Kind == sim.EvBcast && ev.Node == f.spec.Node {
			f.lastBcast, f.haveBcast = ev.MsgID, true
		}
		f.dst.Record(ev)
	}
	if f.spec.Kind == FaultPhantomRecv && !f.injected && t >= f.spec.Round {
		f.injected = true
		id := sim.NewMsgID(f.spec.Node, 1<<20)
		if f.haveBcast {
			id = f.lastBcast
		}
		// A node is never its own G′ neighbor: validity fires immediately.
		f.dst.Record(sim.Event{Round: t, Node: f.spec.Node, From: f.spec.Node,
			Kind: sim.EvRecv, MsgID: id})
	}
	f.dst.RoundsRun = f.src.RoundsRun
	f.inner.AfterRound(t)
}

// Run executes one scenario with the online monitor attached and returns
// its verdict. The same scenario produces the same verdict on every driver
// (the engine's cross-driver determinism carries over to the monitor).
func Run(sc *Scenario, opt RunOptions) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	d, p, err := buildTopology(sc)
	if err != nil {
		return nil, err
	}
	if maxPhases := core.MaxRounds / p.PhaseLen(); sc.Phases > maxPhases {
		return nil, fmt.Errorf("chaos: phases = %d above %d for %d-round phases", sc.Phases, maxPhases, p.PhaseLen())
	}
	rounds := sc.Phases * p.PhaseLen()

	plan := core.NewPhasePlan(p)
	svcs := make([]core.Service, sc.N)
	procs := make([]sim.Process, sc.N)
	for u := range svcs {
		svcs[u] = core.NewLBAlgWithPlan(plan)
		procs[u] = svcs[u]
	}
	senders := make([]int, sc.Senders)
	for i := range senders {
		senders[i] = i
	}
	env := core.NewSaturatingEnv(svcs, senders)

	engTr := &sim.Trace{}
	monTr := engTr
	if sc.Fault != nil {
		monTr = &sim.Trace{}
	}
	mon, err := lbspec.NewMonitor(lbspec.MonitorConfig{
		Dual: d, Trace: monTr, TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: env,
	})
	if err != nil {
		return nil, err
	}
	var simEnv sim.Environment = mon
	if sc.Fault != nil {
		simEnv = &faultView{spec: *sc.Fault, src: engTr, dst: monTr, inner: mon}
	}

	var (
		linkSched sim.LinkScheduler
		adaptive  *sched.Adaptive
	)
	if sc.Model == ModelDualgraph {
		switch sc.Sched {
		case SchedRandom:
			linkSched = sched.NewRandom(sc.SchedP, sc.Seed)
		case SchedPeriodic:
			linkSched = sched.Periodic{Period: 8, OnRounds: 3}
		case SchedAntiDecay:
			linkSched = sched.AntiDecay{CycleLen: p.LogDelta}
		case SchedAdaptive:
			adaptive, err = sched.NewAdaptive(d, sc.AdaptTarget)
			if err != nil {
				return nil, err
			}
			linkSched = adaptive
		}
	}

	var inj *churn.Injector
	if sc.Plan != nil && !sc.Plan.Empty() {
		var fade *churn.FadeScheduler
		if len(sc.Plan.Fades) > 0 {
			fade = churn.NewFadeScheduler(linkSched, d, sc.Plan.Fades)
			linkSched = fade
		}
		inj, err = churn.NewInjector(churn.InjectorConfig{
			Plan: sc.Plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
			Policy: dualgraph.GreyUnreliable,
			Restart: func(u int) sim.Process {
				svcs[u] = core.NewLBAlgWithPlan(plan)
				return svcs[u]
			},
			Inner: simEnv,
			Fade:  fade,
			OnTopology: func() error {
				if adaptive != nil {
					if err := adaptive.Rebind(d); err != nil {
						return err
					}
				}
				return mon.TopologyPatched()
			},
			OnRestart: func(u int, _ sim.Process) { env.Rearm(u) },
			OnDown:    mon.NodeDown,
			OnUp:      mon.NodeRestarted,
		})
		if err != nil {
			return nil, err
		}
		if err := inj.Detach(); err != nil {
			return nil, err
		}
		simEnv = inj
	}

	cfg := sim.Config{Dual: d, Procs: procs, Env: simEnv,
		Seed: sc.Seed + 101, Driver: opt.Driver, Workers: opt.Workers, Trace: engTr}
	if sc.Model == ModelSINR {
		model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), sinr.DefaultParams())
		if err != nil {
			return nil, err
		}
		cfg.Reception = model
	} else {
		cfg.Sched = linkSched
	}
	engine, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	if inj != nil {
		inj.Attach(engine)
	}

	// Segmented run: one phase at a time, stopping at the end of the first
	// violating phase — shrink replays pay only for the prefix that
	// matters.
	for engTr.RoundsRun < rounds {
		engine.Run(min(p.PhaseLen(), rounds-engTr.RoundsRun))
		if inj != nil {
			if err := inj.Err(); err != nil {
				return nil, err
			}
		}
		if mon.TotalViolations() > 0 {
			break
		}
	}
	return &Result{
		PhaseLen:   p.PhaseLen(),
		Rounds:     engTr.RoundsRun,
		Planned:    rounds,
		Report:     mon.Report(),
		Violations: mon.Violations(),
		Total:      mon.TotalViolations(),
	}, nil
}

// Search runs trials scenarios derived from consecutive master seeds and
// returns the first violating one (with its result), or nil if every trial
// came back clean. Faultless generation means a hit is a real invariant
// break — the bounded CI search is a regression net, not an expectation.
func Search(start uint64, trials int, gen GenOptions, run RunOptions) (*Scenario, *Result, int, error) {
	for i := 0; i < trials; i++ {
		sc, err := Generate(start+uint64(i), gen)
		if err != nil {
			return nil, nil, i, err
		}
		res, err := Run(sc, run)
		if err != nil {
			return nil, nil, i, err
		}
		if res.Total > 0 {
			return sc, res, i + 1, nil
		}
	}
	return nil, nil, trials, nil
}
