package sim

import (
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// refProc transmits per a fixed random pattern and records outcomes, for
// comparison against a brute-force model of the collision rule.
type refProc struct {
	env *NodeEnv
	tx  []bool // index t-1
	got []reception
}

func (p *refProc) Init(env *NodeEnv) { p.env = env }

func (p *refProc) Transmit(t int) (any, bool) {
	if t-1 < len(p.tx) && p.tx[t-1] {
		return p.env.ID, true
	}
	return nil, false
}

func (p *refProc) Receive(t, from int, payload any, ok bool) {
	p.got = append(p.got, reception{from: from, payload: payload, ok: ok})
}

// TestCollisionRuleAgainstBruteForce cross-checks the engine's reception
// logic against a direct implementation of the model's collision rule on
// random graphs, schedules and transmit patterns.
func TestCollisionRuleAgainstBruteForce(t *testing.T) {
	rng := xrand.New(99)
	const rounds = 40
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		// Random dual graph: reliable edges with p=0.3, extra unreliable
		// with p=0.3.
		var rel, unrel []dualgraph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				switch f := rng.Float64(); {
				case f < 0.3:
					rel = append(rel, dualgraph.Edge{U: int32(u), V: int32(v)})
				case f < 0.6:
					unrel = append(unrel, dualgraph.Edge{U: int32(u), V: int32(v)})
				}
			}
		}
		d, err := dualgraph.Abstract(n, rel, unrel)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.Random{P: 0.5, Seed: uint64(trial)}

		procs := make([]Process, n)
		patterns := make([][]bool, n)
		for u := 0; u < n; u++ {
			pat := make([]bool, rounds)
			for r := range pat {
				pat[r] = rng.Coin(0.4)
			}
			patterns[u] = pat
			procs[u] = &refProc{tx: pat}
		}
		e, err := New(Config{Dual: d, Procs: procs, Sched: s})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(rounds)

		// Brute force: for each round and listener, collect transmitting
		// topology neighbors directly from the graphs and the schedule. An
		// unreliable edge's index is its rank in G′ ∖ G in (U, V) order.
		var ue []dualgraph.Edge
		for _, e := range d.Gp.Edges() {
			if !d.G.HasEdge(int(e.U), int(e.V)) {
				ue = append(ue, e)
			}
		}
		for round := 1; round <= rounds; round++ {
			for u := 0; u < n; u++ {
				var want reception
				want.from = NoTransmitter
				if !patterns[u][round-1] { // listeners only
					var txNbrs []int
					for v := 0; v < n; v++ {
						if v == u || !patterns[v][round-1] {
							continue
						}
						connected := d.G.HasEdge(u, v)
						if !connected {
							for ei, edge := range ue {
								if (int(edge.U) == u && int(edge.V) == v) || (int(edge.U) == v && int(edge.V) == u) {
									connected = s.Included(round, ei)
									break
								}
							}
						}
						if connected {
							txNbrs = append(txNbrs, v)
						}
					}
					if len(txNbrs) == 1 {
						want = reception{from: txNbrs[0], payload: txNbrs[0], ok: true}
					}
				}
				got := procs[u].(*refProc).got[round-1]
				if got.ok != want.ok || got.from != want.from {
					t.Fatalf("trial %d round %d node %d: engine %+v, brute force %+v",
						trial, round, u, got, want)
				}
			}
		}
	}
}

// TestTransmitterNeverReceives is the half-duplex invariant as a property.
func TestTransmitterNeverReceives(t *testing.T) {
	rng := xrand.New(7)
	d, err := dualgraph.Abstract(6, []dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 60
	procs := make([]Process, d.N())
	patterns := make([][]bool, d.N())
	for u := range procs {
		pat := make([]bool, rounds)
		for r := range pat {
			pat[r] = rng.Coin(0.5)
		}
		patterns[u] = pat
		procs[u] = &refProc{tx: pat}
	}
	e, err := New(Config{Dual: d, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(rounds)
	for u, p := range procs {
		for r, got := range p.(*refProc).got {
			if patterns[u][r] && got.ok {
				t.Fatalf("node %d received while transmitting in round %d", u, r+1)
			}
		}
	}
}
