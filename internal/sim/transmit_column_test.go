package sim

import (
	"fmt"
	"slices"
	"testing"

	"lbcast/internal/dualgraph"
)

// coinBank is a ProcessBank whose transmitters are a seeded pseudo-random
// set each round. set[u] records its decision for node u in the current
// round, so the test can rebuild the ascending list it wrote. Every
// TransmitRange call checks RoundView.Transmit's entry contract: the range
// arrives all zero.
type coinBank struct {
	t    *testing.T
	seed uint64
	set  []uint8
}

// density is round t's transmitter share in sixteenths: the rounds cycle
// through nobody, everybody twice, half the nodes and a sixteenth.
func density(t int) uint64 { return [5]uint64{0, 16, 16, 8, 1}[t%5] }

func (b *coinBank) TransmitRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		if v.Transmit[u] != 0 {
			// Error, not Fatal: the worker pool runs ranges off the test's
			// goroutine.
			b.t.Errorf("round %d: TransmitRange [%d, %d) found Transmit[%d] = %d, want 0",
				t, lo, hi, u, v.Transmit[u])
		}
		b.set[u] = 0
		if v.Down != nil && v.Down[u] {
			continue
		}
		if splitmix(b.seed^uint64(t)<<32^uint64(u))%16 < density(t) {
			b.set[u] = 1
			v.Transmit[u], v.Payloads[u] = 1, u
		}
	}
}

func (b *coinBank) ReceiveRange(int, int, int, *RoundView) {}

// splitmix is the SplitMix64 finaliser, a stateless hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// txsModel is a ReceptionModel that records the transmitter list the engine
// hands it and leaves every node silent.
type txsModel struct{ txs []int32 }

func (m *txsModel) Resolve(_ int, txs []int32, out []int32) {
	m.txs = append(m.txs[:0], txs...)
	for u := range out {
		out[u] = NoTransmitter
	}
}

// nopProc is the per-node handle beside a Config.Bank: only Init runs.
type nopProc struct{}

func (nopProc) Init(*NodeEnv)               {}
func (nopProc) Transmit(int) (any, bool)    { return nil, false }
func (nopProc) Receive(int, int, any, bool) {}

// TestTransmitColumnContract pins RoundView.Transmit's contract and the
// engine's word-at-a-time transmitter scan. A bank sets a seeded random
// transmitter set each round; every TransmitRange call must find its range
// all zero, a reception model must be handed exactly the ascending list the
// bank set, and on the dual-graph path (a path graph) the round's
// transmission, delivery and collision counts must be the ones that list
// gives. The sizes put the scan's eight-node words and ragged tails at
// every boundary, on the sequential driver and at 2, 3 and 7 workers (so
// range boundaries fall inside words). Every node transmits in rounds 11
// and 12; between them node 0 goes down, so round 12 must list everyone
// else.
func TestTransmitColumnContract(t *testing.T) {
	const rounds, downAfter = 14, 11
	drivers := []struct {
		name    string
		driver  Driver
		workers int
	}{
		{"sequential", DriverSequential, 0},
		{"pool-2", DriverWorkerPool, 2},
		{"pool-3", DriverWorkerPool, 3},
		{"pool-7", DriverWorkerPool, 7},
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 1000} {
		var edges []dualgraph.Edge
		for u := 0; u+1 < n; u++ {
			edges = append(edges, dualgraph.Edge{U: int32(u), V: int32(u + 1)})
		}
		d := must(t)(dualgraph.Abstract(n, edges, nil))
		for _, dr := range drivers {
			for _, withModel := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/%s/dual-graph", n, dr.name)
				if withModel {
					name = fmt.Sprintf("n=%d/%s/reception-model", n, dr.name)
				}
				t.Run(name, func(t *testing.T) {
					bank := &coinBank{t: t, seed: uint64(n), set: make([]uint8, n)}
					procs := make([]Process, n)
					for u := range procs {
						procs[u] = nopProc{}
					}
					cfg := Config{Dual: d, Procs: procs, Bank: bank, Seed: 3,
						Driver: dr.driver, Workers: dr.workers}
					model := &txsModel{}
					if withModel {
						cfg.Reception = model
					}
					e := newTestEngine(t, cfg)
					var down []bool
					var want []int32
					for r := 1; r <= rounds; r++ {
						tr := e.Trace()
						tx0, del0, col0 := tr.Transmissions, tr.Deliveries, tr.Collisions
						e.Step()
						want = want[:0]
						for u, s := range bank.set {
							if s != 0 {
								want = append(want, int32(u))
							}
						}
						if r == downAfter+1 && len(want) != n-1 {
							t.Fatalf("round %d lists %d transmitters after a SetDown, want every other node (%d)",
								r, len(want), n-1)
						}
						if tr.Transmissions-tx0 != len(want) {
							t.Fatalf("round %d: trace counts %d transmissions, the bank set %d",
								r, tr.Transmissions-tx0, len(want))
						}
						if withModel {
							if !slices.Equal(model.txs, want) {
								t.Fatalf("round %d: Resolve got txs %v, the bank set %v", r, model.txs, want)
							}
						} else {
							del, col := pathOutcomes(bank.set, down)
							if tr.Deliveries-del0 != del || tr.Collisions-col0 != col {
								t.Fatalf("round %d: %d deliveries and %d collisions, the transmitters give %d and %d",
									r, tr.Deliveries-del0, tr.Collisions-col0, del, col)
							}
						}
						if r == downAfter {
							if len(want) != n {
								t.Fatalf("round %d lists %d transmitters, want all %d", r, len(want), n)
							}
							e.SetDown(0, true)
							down = make([]bool, n)
							down[0] = true
						}
					}
				})
			}
		}
	}
}

// pathOutcomes counts the deliveries and collisions of one round on the
// path graph 0–1–…–(n−1) from its transmit column: a live listener with one
// transmitting neighbour receives, one with two collides.
func pathOutcomes(set []uint8, down []bool) (del, col int) {
	for u := range set {
		if set[u] != 0 || down != nil && down[u] {
			continue
		}
		c := 0
		if u > 0 && set[u-1] != 0 {
			c++
		}
		if u+1 < len(set) && set[u+1] != 0 {
			c++
		}
		switch {
		case c == 1:
			del++
		case c == 2:
			col++
		}
	}
	return del, col
}
