package sim

import (
	"runtime"
	"slices"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/xrand"
)

// scriptBank transmits a scripted node set each round and, in every range
// call, records the slots it is handed and checks them against the Reached
// bits: both all zero during TransmitRange, and in ReceiveRange a bit set
// exactly where a slot is nonzero.
type scriptBank struct {
	t     *testing.T
	txs   map[int][]int
	slots [][]RxSlot // per round, the slots ReceiveRange saw
}

func (b *scriptBank) TransmitRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		if v.Rx[u] != 0 || v.Reached[u>>6]>>(u&63)&1 != 0 {
			b.t.Errorf("round %d: TransmitRange sees node %d reached (slot %d)", t, u, v.Rx[u])
		}
	}
	for _, u := range b.txs[t] {
		if u >= lo && u < hi {
			v.Transmit[u], v.Payloads[u] = 1, u
		}
	}
}

func (b *scriptBank) ReceiveRange(t, lo, hi int, v *RoundView) {
	for u := lo; u < hi; u++ {
		if bit := v.Reached[u>>6]>>(u&63)&1 != 0; bit != (v.Rx[u] != 0) {
			b.t.Errorf("round %d node %d: Reached bit %v for slot %d", t, u, bit, v.Rx[u])
		}
	}
	copy(b.slots[t][lo:hi], v.Rx[lo:hi])
}

// blockModel hears every transmitter's lower neighbour, and blocks node 0
// whenever anyone transmits.
type blockModel struct{}

func (blockModel) Resolve(_ int, txs []int32, out []int32) {
	for u := range out {
		out[u] = NoTransmitter
	}
	for _, v := range txs {
		if v > 0 {
			out[v-1] = v
		}
	}
	if len(txs) > 0 {
		out[0] = Blocked
	}
}

// TestRxSlotAcrossRounds follows reception slots through three rounds on
// the path 0–1–2–3–4, on the dual graph and through a reception model. In
// round 1 nodes 1 and 2 transmit and reach each other: both slots name the
// other, though a transmitter hears ⊥. In round 2 only node 4 transmits, so
// node 2, bumped the round before, reads as not reached. In round 3 nodes
// 0 and 2 collide at node 1. A Blocked model outcome reads as a collision,
// and both give ⊥.
func TestRxSlotAcrossRounds(t *testing.T) {
	d := must(t)(dualgraph.Abstract(5, []dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}, nil))
	txs := map[int][]int{1: {1, 2}, 2: {4}, 3: {0, 2}}
	for _, tc := range []struct {
		name  string
		model ReceptionModel
		want  map[int][]RxSlot
	}{
		{"dual-graph", nil, map[int][]RxSlot{
			1: {Heard(1), Heard(2), Heard(1), Heard(2), 0},
			2: {0, 0, 0, Heard(4), 0},
			3: {0, RxCollision, 0, Heard(2), 0},
		}},
		{"reception-model", blockModel{}, map[int][]RxSlot{
			// A transmitter's outcome is ignored, so node 1's slot stays 0.
			1: {RxCollision, 0, 0, 0, 0},
			2: {RxCollision, 0, 0, Heard(4), 0},
			3: {0, Heard(2), 0, 0, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				bank := &scriptBank{t: t, txs: txs, slots: make([][]RxSlot, 4)}
				for r := range bank.slots {
					bank.slots[r] = make([]RxSlot, 5)
				}
				procs := []Process{nopProc{}, nopProc{}, nopProc{}, nopProc{}, nopProc{}}
				e := newTestEngine(t, Config{Dual: d, Procs: procs, Bank: bank, Reception: tc.model,
					Driver: DriverWorkerPool, Workers: workers})
				e.Run(3)
				for r := 1; r <= 3; r++ {
					if !slices.Equal(bank.slots[r], tc.want[r]) {
						t.Errorf("%d workers, round %d: slots %v, want %v", workers, r, bank.slots[r], tc.want[r])
					}
				}
			}
		})
	}
	if v, ok := RxCollision.From(); ok {
		t.Errorf("a collided slot reads as a reception from %d", v)
	}
	if v, ok := Heard(3).From(); !ok || v != 3 {
		t.Errorf("Heard(3).From() = %d, %v", v, ok)
	}
	var zero RxSlot
	if _, ok := zero.From(); ok {
		t.Error("an empty slot reads as a reception")
	}
}

// TestShardedScatterLeavesSlotsZero runs the worker pool's sharded scatter
// (nearly every node transmits, far above parallelScatterMinTx) and checks
// after every round that every shard slot, every engine slot and every
// Reached word is zero again.
func TestShardedScatterLeavesSlotsZero(t *testing.T) {
	d, err := dualgraph.RandomGeometric(200, 6, 6, 2.0, dualgraph.GreyUnreliable, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Process, d.N())
	for u := range procs {
		procs[u] = &chattyProc{p: 0.9}
	}
	e := newTestEngine(t, Config{Dual: d, Procs: procs, Sched: sched.NewRandom(0.6, 5), Seed: 3,
		Driver: DriverWorkerPool, Workers: 3})
	for r := 1; r <= 20; r++ {
		e.Step()
		if len(e.shards) == 0 {
			t.Fatalf("round %d: the scatter was not sharded", r)
		}
		for w, sh := range e.shards {
			if i := slices.IndexFunc(sh.rx, func(s RxSlot) bool { return s != 0 }); i >= 0 {
				t.Fatalf("round %d: shard %d keeps slot %d = %d", r, w, i, sh.rx[i])
			}
		}
		if i := slices.IndexFunc(e.rx, func(s RxSlot) bool { return s != 0 }); i >= 0 {
			t.Fatalf("round %d: engine keeps slot %d = %d", r, i, e.rx[i])
		}
		if i := slices.IndexFunc(e.view.Reached, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("round %d: Reached word %d = %#x", r, i, e.view.Reached[i])
		}
	}
}

// rowBank initialises its own rows (BankInit) and keeps each node's
// stream and recorder.
type rowBank struct {
	record bool
	rngs   []xrand.Source
	recs   []Recorder
}

func (b *rowBank) TransmitRange(int, int, int, *RoundView) {}
func (b *rowBank) ReceiveRange(int, int, int, *RoundView)  {}
func (b *rowBank) RecordsEvents() bool                     { return b.record }
func (b *rowBank) InitRow(u int, rng xrand.Source, rec Recorder) {
	b.rngs[u], b.recs[u] = rng, rec
}

// TestBankInitRows pins the BankInit path of New: Procs may be nil, every
// node gets the stream NodeSource gives, by value, a recorder only when the
// bank records, and a bank that records nothing costs no heap object per
// node (a handful of engine columns over 20,000 nodes). Without BankInit a
// nil Procs is still an error.
func TestBankInitRows(t *testing.T) {
	const n = 20_000
	var edges []dualgraph.Edge
	for u := 0; u+1 < n; u++ {
		edges = append(edges, dualgraph.Edge{U: int32(u), V: int32(u + 1)})
	}
	d := must(t)(dualgraph.Abstract(n, edges, nil))
	for _, record := range []bool{false, true} {
		bank := &rowBank{record: record, rngs: make([]xrand.Source, n), recs: make([]Recorder, n)}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := New(Config{Dual: d, Bank: bank, Seed: 42})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(2)
		if objs := float64(after.Mallocs-before.Mallocs) / n; !record && objs >= 0.01 {
			t.Errorf("New over a non-recording BankInit bank allocates %.4f objects per node, want < 0.01", objs)
		}
		for _, u := range []int{0, 1, n / 2, n - 1} {
			if bank.rngs[u] != *xrand.NodeSource(42, u) {
				t.Errorf("record=%v node %d: InitRow's stream differs from NodeSource's", record, u)
			}
			if (bank.recs[u] != nil) != record {
				t.Errorf("record=%v node %d: recorder %v", record, u, bank.recs[u])
			}
		}
	}
	if _, err := New(Config{Dual: d, Bank: &coinBank{}}); err == nil {
		t.Error("a nil Procs beside a bank without BankInit was accepted")
	}
}
