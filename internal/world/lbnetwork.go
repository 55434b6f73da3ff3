package world

import (
	"fmt"

	"lbcast/internal/core"
	"lbcast/internal/lbspec"
	"lbcast/internal/sim"
)

// LBNetwork is an assembled LBAlg deployment: one engine stepping one
// state bank, and the monitor judging the run (nil when unmonitored).
type LBNetwork struct {
	Engine *sim.Engine
	Bank   *core.NodeStateBank
	Mon    *lbspec.Monitor
}

// NewLBNetwork builds every LBAlg deployment whose nodes never restart
// (ReplaceProc refuses banks): a core.NodeStateBank over one PhasePlan of
// p, stepped through sim.Config.Bank, which initialises its own rows. cfg
// carries the dual graph, physical layer, seed, driver and trace;
// NewLBNetwork sets Bank and Env, and clears Procs.
// env, when non-nil, builds the environment over the nodes' services and
// its error is returned. A monitored run records the bank's hear, recv,
// ack and bcast events and wraps the environment in an lbspec.Monitor on
// the engine's trace; an unmonitored one records no events.
func NewLBNetwork(cfg sim.Config, p core.Params, env func([]core.Service) (sim.Environment, error), monitored bool) (*LBNetwork, error) {
	if cfg.Dual == nil {
		return nil, fmt.Errorf("world: LBAlg network needs a dual graph")
	}
	net := &LBNetwork{Bank: core.NewNodeStateBank(core.NewPhasePlan(p), cfg.Dual.N())}
	net.Bank.SetRecordEvents(monitored)
	cfg.Procs, cfg.Bank, cfg.Env = nil, net.Bank, nil
	if env != nil {
		svcs := make([]core.Service, net.Bank.Len())
		for u := range svcs {
			svcs[u] = net.Bank.Node(u)
		}
		var err error
		if cfg.Env, err = env(svcs); err != nil {
			return nil, err
		}
	}
	if monitored {
		if cfg.Trace == nil {
			cfg.Trace = &sim.Trace{}
		}
		mon, err := lbspec.NewMonitor(lbspec.MonitorConfig{Dual: cfg.Dual, Trace: cfg.Trace,
			TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: cfg.Env})
		if err != nil {
			return nil, err
		}
		cfg.Env, net.Mon = mon, mon
	}
	var err error
	net.Engine, err = sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return net, nil
}
