package sched

import (
	"math"
	"testing"
	"testing/quick"

	"lbcast/internal/dualgraph"
)

func TestNeverAlways(t *testing.T) {
	for tt := 1; tt < 100; tt++ {
		for e := 0; e < 5; e++ {
			if (Never{}).Included(tt, e) {
				t.Fatal("Never included an edge")
			}
			if !(Always{}).Included(tt, e) {
				t.Fatal("Always excluded an edge")
			}
		}
	}
}

func TestRandomOblivious(t *testing.T) {
	// Obliviousness: answers are a pure function of (t, edge).
	s := Random{P: 0.5, Seed: 42}
	f := func(tt uint16, e uint16) bool {
		a := s.Included(int(tt), int(e))
		b := s.Included(int(tt), int(e))
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomRate(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := Random{P: p, Seed: 7}
		const trials = 50000
		hits := 0
		for i := 0; i < trials; i++ {
			if s.Included(i, i*31) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Random{P=%v} empirical rate %v", p, got)
		}
	}
}

func TestRandomExtremes(t *testing.T) {
	if (Random{P: 0, Seed: 1}).Included(3, 4) {
		t.Error("P=0 included an edge")
	}
	if !(Random{P: 1, Seed: 1}).Included(3, 4) {
		t.Error("P=1 excluded an edge")
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	a := Random{P: 0.5, Seed: 1}
	b := Random{P: 0.5, Seed: 2}
	same := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if a.Included(i, 0) == b.Included(i, 0) {
			same++
		}
	}
	if same > trials*3/4 || same < trials/4 {
		t.Errorf("seeds produce suspiciously correlated schedules: %d/%d equal", same, trials)
	}
}

func TestPeriodic(t *testing.T) {
	s := Periodic{Period: 4, OnRounds: 2}
	want := map[int]bool{1: true, 2: true, 3: false, 4: false, 5: true, 6: true, 7: false}
	for tt, w := range want {
		if got := s.Included(tt, 0); got != w {
			t.Errorf("Periodic.Included(%d) = %v, want %v", tt, got, w)
		}
	}
	if (Periodic{Period: 0, OnRounds: 1}).Included(1, 0) {
		t.Error("Period=0 included an edge")
	}
}

func TestAntiDecayHalves(t *testing.T) {
	s := AntiDecay{CycleLen: 4}
	// Rounds 1,2 are the high-probability half (included); 3,4 excluded.
	for _, tc := range []struct {
		t    int
		want bool
	}{{1, true}, {2, true}, {3, false}, {4, false}, {5, true}, {8, false}} {
		if got := s.Included(tc.t, 0); got != tc.want {
			t.Errorf("AntiDecay.Included(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestAntiDecayOffset(t *testing.T) {
	base := AntiDecay{CycleLen: 6}
	shift := AntiDecay{CycleLen: 6, Offset: 3}
	for tt := 1; tt <= 24; tt++ {
		if base.Included(tt+3, 0) != shift.Included(tt, 0) {
			t.Fatalf("offset misaligned at t=%d", tt)
		}
	}
}

func TestTunedAntiDecay(t *testing.T) {
	// With many senders the leak-minimising split keeps more than the naive
	// half included: contention stays lethal deep into the cycle. For 1025
	// senders over an 11-cycle, "include while k·p > ln k" gives split 7.
	s := TunedAntiDecay(1025, 11)
	if s.OnPositions != 7 {
		t.Errorf("OnPositions = %d, want 7 (> naive half %d)", s.OnPositions, (11+1)/2)
	}
	if s.CycleLen != 11 {
		t.Errorf("CycleLen = %d", s.CycleLen)
	}
	// The tuned schedule is still a pure function of t.
	for tt := 1; tt <= 30; tt++ {
		if s.Included(tt, 0) != s.Included(tt, 1) || s.Included(tt, 0) != s.Included(tt, 0) {
			t.Fatal("tuned schedule inconsistent")
		}
	}
	// With a single sender, including anything only helps the victim;
	// the optimum is to include nothing... except the lone-sender leak is
	// identical either way, so just require a valid split.
	if got := TunedAntiDecay(1, 4).OnPositions; got < 0 || got > 4 {
		t.Errorf("degenerate split %d", got)
	}
}

func TestAntiDecayOnPositionsOverride(t *testing.T) {
	s := AntiDecay{CycleLen: 6, OnPositions: 5}
	for tt := 1; tt <= 6; tt++ {
		want := tt <= 5
		if got := s.Included(tt, 0); got != want {
			t.Errorf("Included(%d) = %v, want %v", tt, got, want)
		}
	}
}

func TestAntiDecayOblivious(t *testing.T) {
	s := AntiDecay{CycleLen: 8, Offset: 2}
	f := func(tt int16, e uint8) bool {
		return s.Included(int(tt), int(e)) == s.Included(int(tt), int(e))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// adaptiveFixture builds the star-with-decoys dual graph for adversary tests.
func adaptiveFixture(t *testing.T, decoys int) *dualgraph.Dual {
	t.Helper()
	d, err := dualgraph.StarWithDecoys(decoys)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAdaptiveCollidesSoleReliableTransmitter(t *testing.T) {
	d := adaptiveFixture(t, 3)
	a, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (reliable neighbor) transmits; decoy 2 transmits as well.
	tx := make([]uint8, d.N())
	tx[1] = 1
	tx[2] = 1
	a.ObserveTransmitters(1, tx)
	included := 0
	var chosenPeer int32 = -1
	for i := range d.UnreliableEdges() {
		if a.Included(1, i) {
			included++
			e := d.UnreliableEdges()[i]
			chosenPeer = e.U + e.V // one endpoint is 0
		}
	}
	if included != 1 {
		t.Fatalf("adversary included %d edges, want exactly 1", included)
	}
	if chosenPeer != 2 {
		t.Fatalf("adversary chose peer %d, want transmitting decoy 2", chosenPeer)
	}
}

func TestAdaptiveSilentWhenNoDeliveryThreat(t *testing.T) {
	d := adaptiveFixture(t, 3)
	a, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tx   func([]uint8)
	}{
		{"nobody transmits", func([]uint8) {}},
		{"only decoys transmit", func(tx []uint8) { tx[2], tx[3] = 1, 1 }},
		{"two reliable transmitters collide already", func(tx []uint8) { tx[1] = 1 }},
	}
	// The third case needs a second reliable neighbor; StarWithDecoys has
	// only one, so emulate with reliableTx≠1 by zero transmitters instead.
	for _, tc := range cases[:2] {
		t.Run(tc.name, func(t *testing.T) {
			tx := make([]uint8, d.N())
			tc.tx(tx)
			a.ObserveTransmitters(2, tx)
			for i := range d.UnreliableEdges() {
				if a.Included(2, i) {
					t.Fatalf("adversary included edge %d with no delivery to block", i)
				}
			}
		})
	}
}

func TestAdaptiveNoTransmittingDecoy(t *testing.T) {
	d := adaptiveFixture(t, 2)
	a, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reliable neighbor transmits alone: the adversary cannot manufacture a
	// collision because no unreliable peer transmits.
	tx := make([]uint8, d.N())
	tx[1] = 1
	a.ObserveTransmitters(5, tx)
	for i := range d.UnreliableEdges() {
		if a.Included(5, i) {
			t.Fatal("adversary included an edge with a silent peer")
		}
	}
}

func TestAdaptiveStaleRound(t *testing.T) {
	d := adaptiveFixture(t, 2)
	a, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]uint8, d.N())
	tx[1], tx[2] = 1, 1
	a.ObserveTransmitters(3, tx)
	// Queries for other rounds must not leak the stale decision.
	for i := range d.UnreliableEdges() {
		if a.Included(4, i) {
			t.Fatal("adversary answered for a round it did not observe")
		}
	}
}

func TestNewAdaptiveRejectsBadTarget(t *testing.T) {
	d := adaptiveFixture(t, 1)
	if _, err := NewAdaptive(d, -1); err == nil {
		t.Error("want error for negative target")
	}
	if _, err := NewAdaptive(d, d.N()); err == nil {
		t.Error("want error for out-of-range target")
	}
}

// TestIncludedBatchMatchesIncluded checks the BatchLinkScheduler contract
// for every scheduler: the batch fill must be bit-identical to per-edge
// queries, including overwriting stale mask contents.
func TestIncludedBatchMatchesIncluded(t *testing.T) {
	d := adaptiveFixture(t, 3)
	adaptive, err := NewAdaptive(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]uint8, d.N())
	tx[1], tx[2] = 1, 1

	type batcher interface {
		Included(t, edge int) bool
		IncludedBatch(t int, mask []bool)
	}
	cases := []struct {
		name string
		s    batcher
		prep func(round int)
	}{
		{"never", Never{}, nil},
		{"always", Always{}, nil},
		{"random", Random{P: 0.37, Seed: 123}, nil},
		{"random-p0", Random{P: 0, Seed: 1}, nil},
		{"random-p1", Random{P: 1, Seed: 1}, nil},
		{"periodic", Periodic{Period: 5, OnRounds: 2}, nil},
		{"antidecay", AntiDecay{CycleLen: 6, Offset: 2}, nil},
		{"adaptive", adaptive, func(round int) { adaptive.ObserveTransmitters(round, tx) }},
	}
	nEdges := len(d.UnreliableEdges())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mask := make([]bool, nEdges)
			for round := 1; round <= 40; round++ {
				if tc.prep != nil {
					tc.prep(round)
				}
				// Poison the mask: batch fills must overwrite every entry.
				for i := range mask {
					mask[i] = round%2 == 0
				}
				tc.s.IncludedBatch(round, mask)
				for e := 0; e < nEdges; e++ {
					if want := tc.s.Included(round, e); mask[e] != want {
						t.Fatalf("round %d edge %d: batch %v, Included %v", round, e, mask[e], want)
					}
				}
			}
		})
	}
}

// TestAdaptiveDeterministicChoice pins the determinism fix: with several
// transmitting decoys the adversary must always choose the lowest-index
// eligible edge, identically across repeated constructions (the old map
// iteration made this choice nondeterministic across runs).
func TestAdaptiveDeterministicChoice(t *testing.T) {
	d := adaptiveFixture(t, 4)
	lowest := -1
	uc := d.UnreliableCSR()
	for _, e := range uc.Edges[uc.Off[0]:uc.Off[1]] {
		if lowest == -1 || int(e) < lowest {
			lowest = int(e)
		}
	}
	for trial := 0; trial < 20; trial++ {
		a, err := NewAdaptive(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		tx := make([]uint8, d.N())
		tx[1] = 1 // the sole reliable transmitter: a delivery threat
		for u := 2; u < d.N(); u++ {
			tx[u] = 1 // every decoy transmits: all edges eligible
		}
		a.ObserveTransmitters(1, tx)
		chosen := -1
		for i := range d.UnreliableEdges() {
			if a.Included(1, i) {
				if chosen != -1 {
					t.Fatal("more than one edge included")
				}
				chosen = i
			}
		}
		if chosen != lowest {
			t.Fatalf("trial %d: chose edge %d, want lowest-index eligible %d", trial, chosen, lowest)
		}
	}
}

// TestRandomPathsBitIdentical pins the contract that Included, IncludedBatch
// and IncludedFor — and the cached NewRandom construction vs a plain literal
// — produce bit-identical schedules across edge-case probabilities: 0,
// subnormal-small, ½, the largest float below 1, and 1.
func TestRandomPathsBitIdentical(t *testing.T) {
	ps := []float64{0, 1e-18, 0.5, math.Nextafter(1, 0), 1}
	const edges = 257
	edgeIDs := make([]int32, edges)
	for i := range edgeIDs {
		edgeIDs[i] = int32(i)
	}
	mask := make([]bool, edges)
	sub := make([]bool, edges)
	for _, p := range ps {
		cached := NewRandom(p, 12345)
		literal := Random{P: p, Seed: 12345}
		for _, round := range []int{1, 2, 100, 1 << 20} {
			cached.IncludedBatch(round, mask)
			cached.IncludedFor(round, edgeIDs, sub)
			for e := 0; e < edges; e++ {
				want := literal.Included(round, e)
				if got := cached.Included(round, e); got != want {
					t.Fatalf("P=%v round=%d edge=%d: cached Included=%v, literal=%v", p, round, e, got, want)
				}
				if mask[e] != want {
					t.Fatalf("P=%v round=%d edge=%d: IncludedBatch=%v, Included=%v", p, round, e, mask[e], want)
				}
				if sub[e] != want {
					t.Fatalf("P=%v round=%d edge=%d: IncludedFor=%v, Included=%v", p, round, e, sub[e], want)
				}
			}
		}
		if v, ok := cached.Uniform(1); ok {
			for e := 0; e < edges; e++ {
				if cached.Included(1, e) != v {
					t.Fatalf("P=%v: Uniform=(%v,true) but Included(1,%d)=%v", p, v, e, cached.Included(1, e))
				}
			}
		} else if p <= 0 || p >= 1 {
			t.Fatalf("P=%v: degenerate probability must report a uniform round", p)
		}
	}
}

// TestSparseAgreesWithBatch cross-checks every scheduler's sparse interface
// (Uniform + IncludedFor) against its batch mask over many rounds.
func TestSparseAgreesWithBatch(t *testing.T) {
	const edges = 64
	edgeIDs := make([]int32, edges)
	for i := range edgeIDs {
		edgeIDs[i] = int32(i)
	}
	cases := []struct {
		name string
		s    interface {
			Included(int, int) bool
			IncludedBatch(int, []bool)
			Uniform(int) (bool, bool)
			IncludedFor(int, []int32, []bool)
		}
	}{
		{"never", Never{}},
		{"always", Always{}},
		{"random", NewRandom(0.3, 99)},
		{"periodic", Periodic{Period: 5, OnRounds: 2}},
		{"antidecay", AntiDecay{CycleLen: 4}},
	}
	mask := make([]bool, edges)
	sub := make([]bool, edges)
	for _, c := range cases {
		for round := 1; round <= 40; round++ {
			c.s.IncludedBatch(round, mask)
			c.s.IncludedFor(round, edgeIDs, sub)
			uv, uok := c.s.Uniform(round)
			for e := 0; e < edges; e++ {
				if sub[e] != mask[e] {
					t.Fatalf("%s round %d edge %d: IncludedFor=%v, IncludedBatch=%v", c.name, round, e, sub[e], mask[e])
				}
				if uok && mask[e] != uv {
					t.Fatalf("%s round %d edge %d: Uniform=(%v,true) but mask=%v", c.name, round, e, uv, mask[e])
				}
			}
		}
	}
}
