package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// captureRec is a Recorder that appends every event to a per-node list, so
// the lockstep test can compare the bank's full event streams (hear, recv,
// ack, bcast) against the per-node oracle's, not just the callback outputs.
type captureRec struct{ evs *[]sim.Event }

func (r captureRec) Record(ev sim.Event) { *r.evs = append(*r.evs, ev) }

// lockstepSide is one representation under the lockstep test: its nodes,
// their private coin streams, and everything they emitted.
type lockstepSide struct {
	name  string
	nodes []Service
	rngs  []*xrand.Source
	evs   [][]sim.Event
	acks  [][]sim.MsgID
	recvs [][]sim.MsgID
}

func newLockstepSide(name string, nodes []Service) *lockstepSide {
	n := len(nodes)
	s := &lockstepSide{name: name, nodes: nodes, rngs: make([]*xrand.Source, n),
		evs: make([][]sim.Event, n), acks: make([][]sim.MsgID, n), recvs: make([][]sim.MsgID, n)}
	for u, nd := range nodes {
		s.rngs[u] = xrand.NodeSource(7, u)
		nd.Init(&sim.NodeEnv{ID: u, Delta: 8, DeltaPrime: 8, R: 1,
			Rng: s.rngs[u], Rec: captureRec{&s.evs[u]}})
		if h, ok := nd.(*BankNode); ok {
			s.rngs[u] = &h.bank.rngs[u] // a bank draws from its copy of the stream
		}
		nd.SetOnAck(func(m Message) { s.acks[u] = append(s.acks[u], m.ID) })
		nd.SetOnRecv(func(m Message, _ int) { s.recvs[u] = append(s.recvs[u], m.ID) })
	}
	return s
}

// TestNodeStateBankLockstep drives a NodeStateBank through its batch range
// surface, a second bank through its per-node handles, and a per-node LBAlg
// array through identical lossy executions — same per-node randomness, same
// staggered bcast schedule, same channel outcomes, a crash window for one
// node — and requires byte-identical behavior: every round's transmit
// decision and payload, every recorded event, every recv and ack callback,
// Active, the sending state, and each node's private coin stream (so every
// private draw, not only how many). The channel fills the
// RoundView the way the engine does: the Transmit column is all zero when
// a round starts, and Touched marks every reached node —
// clean receptions, collisions (Count ≥ 2), transmitters' own stamped slots
// and down nodes — while silent listeners' Rx slots and non-transmitters'
// payloads hold poison that a bank must never read. The range side runs
// each phase over one of three partitions of [0, n), whose boundaries fall
// inside 8-node words and whose choice changes from round to round and
// between a round's two phases, so the visit list is read over other
// ranges than the ones that built it. Runs cover the paper's k = 1 schedule and
// the Section 4.2 k = 3 variant whose mid-cycle sender arrivals exercise
// the deferred decode and cursor-debt settlement.
//
// The bank holds coin buffers only for senders, so the test also checks
// from the range side that after every round a node holds a coin buffer
// only while it is sending, and the run must reach rounds where two or more
// sending nodes hold coins decoded from one committed seed value. Besides
// node 2's window, later crash windows straddle preamble restarts — one
// node per window, back mid-preamble (it commits to the (j, s) it decided
// before it went down, not to the seed its owner drew since) or mid-body
// (it keeps an old commitment across its owner's restart and decodes it in
// the next body-only phase).
func TestNodeStateBankLockstep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seedEvery int
	}{
		{"paper-k1", 1},
		{"ablation-k3", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 27
			partitions := [][][2]int{{{0, 5}, {5, 22}, {22, n}}, {{0, 13}, {13, n}}, {{0, n}}}
			p, err := DeriveParams(8, 8, 1, 0.25, WithSeedEveryKPhases(tc.seedEvery))
			if err != nil {
				t.Fatal(err)
			}
			plan := NewPhasePlan(p)

			bank := NewNodeStateBank(plan, n)
			handles := NewNodeStateBank(plan, n)
			bank.SetRecordEvents(true)
			handles.SetRecordEvents(true)
			var bankNodes, handleNodes, oracleNodes []Service
			for u := 0; u < n; u++ {
				bankNodes = append(bankNodes, bank.Node(u))
				handleNodes = append(handleNodes, handles.Node(u))
				oracleNodes = append(oracleNodes, NewLBAlgWithPlan(plan))
			}
			sides := []*lockstepSide{
				newLockstepSide("bank", bankNodes),
				newLockstepSide("handles", handleNodes),
				newLockstepSide("oracle", oracleNodes),
			}
			ref := sides[2]

			view := newRoundView(n)
			view.Down = make([]bool, n)
			type poison struct{}
			pPayloads := [][]any{nil, make([]any, n), make([]any, n)}
			pTransmit := [][]bool{nil, make([]bool, n), make([]bool, n)}
			heard := make([]int, n) // per node: the transmitter heard, or -1

			rounds := (2*tc.seedEvery + 2) * p.Tack * p.PhaseLen()
			// Crash windows, [from, to) in rounds: every side must skip a down
			// node identically (no RNG draws, no receptions). Node 2 goes down
			// in the middle of the run; from there on, every odd node from 3
			// goes down one round before a preamble phase and comes back
			// mid-preamble (u ≡ 3 mod 4) or mid-body (u ≡ 1 mod 4).
			type window struct{ u, from, to int }
			windows := []window{{2, rounds / 3, rounds / 2}}
			firstPre := (rounds/3)/(tc.seedEvery*p.PhaseLen()) + 1
			lastPre := rounds/(tc.seedEvery*p.PhaseLen()) - 1
			for u := 3; u < n; u += 2 {
				start := (firstPre + u%(lastPre-firstPre+1)) * tc.seedEvery * p.PhaseLen()
				back := start + p.Ts/2
				if u%4 == 1 {
					back = start + p.Ts + p.Tprog/2
				}
				windows = append(windows, window{u, start, back})
			}
			loss := xrand.New(41)
			var txs []int
			sent := 0   // data transmissions
			shared := 0 // rounds where two sending nodes hold one owner's coins
			for tr := 1; tr <= rounds; tr++ {
				if tr%(p.PhaseLen()/4+3) == 0 {
					u := tr % n
					var ids [3]sim.MsgID
					var errs [3]error
					for i, s := range sides {
						ids[i], errs[i] = s.nodes[u].Bcast(tr)
					}
					for i := range 2 {
						if (errs[i] == nil) != (errs[2] == nil) || ids[i] != ids[2] {
							t.Fatalf("round %d: %s bcast diverged (%v/%v, oracle %v/%v)",
								tr, sides[i].name, ids[i], errs[i], ids[2], errs[2])
						}
					}
				}
				for _, w := range windows {
					view.Down[w.u] = tr >= w.from && tr < w.to
				}

				// Transmit phase: the bank through the batch surface, over stale
				// payloads; the other sides per node with the engine's
				// per-node semantics (a down node transmits nothing).
				for u := range view.Payloads {
					view.Payloads[u] = poison{}
				}
				for _, r := range partitions[tr%len(partitions)] {
					bank.TransmitRange(tr, r[0], r[1], &view)
				}
				for i := 1; i < 3; i++ {
					for u := 0; u < n; u++ {
						if view.Down[u] {
							pPayloads[i][u], pTransmit[i][u] = nil, false
							continue
						}
						pPayloads[i][u], pTransmit[i][u] = sides[i].nodes[u].Transmit(tr)
					}
				}
				txs = txs[:0]
				for u := 0; u < n; u++ {
					if view.Transmit[u] > 1 {
						t.Fatalf("round %d node %d: Transmit byte %d, want 0 or 1", tr, u, view.Transmit[u])
					}
					tx := view.Transmit[u] == 1
					for i := 1; i < 3; i++ {
						if tx != pTransmit[i][u] {
							t.Fatalf("round %d node %d: %s transmit decision diverged (bank %v, %s %v)",
								tr, u, sides[i].name, tx, sides[i].name, pTransmit[i][u])
						}
						if tx && !samePayload(view.Payloads[u], pPayloads[i][u]) {
							t.Fatalf("round %d node %d: payload diverged (bank %v, %s %v)",
								tr, u, view.Payloads[u], sides[i].name, pPayloads[i][u])
						}
					}
					if tx {
						txs = append(txs, u)
						if _, data := view.Payloads[u].(DataMsg); data {
							sent++
						}
					}
				}

				// Channel: a silent listener's slot stays 0; a reached node's
				// slot holds a clean reception of one transmitter or a
				// collision. Transmitters and down nodes are reached too —
				// ReceiveRange must filter them.
				for u := 0; u < n; u++ {
					heard[u] = -1
					if len(txs) == 0 || loss.Coin(0.2) {
						continue
					}
					if loss.Coin(0.3) {
						view.Rx[u] = sim.RxCollision
						continue
					}
					from := txs[loss.Intn(len(txs))]
					view.Rx[u] = sim.Heard(int32(from))
					if view.Transmit[u] == 0 && !view.Down[u] {
						heard[u] = from
					}
				}
				markReached(&view)
				for _, r := range partitions[(tr/2)%len(partitions)] {
					bank.ReceiveRange(tr, r[0], r[1], &view)
				}
				if sharingSenders(t, bank, tr) {
					shared++
				}
				for i := 1; i < 3; i++ {
					for u := 0; u < n; u++ {
						if view.Down[u] {
							continue
						}
						if from := heard[u]; from >= 0 {
							sides[i].nodes[u].Receive(tr, from, pPayloads[i][from], true)
						} else {
							sides[i].nodes[u].Receive(tr, sim.NoTransmitter, nil, false)
						}
					}
				}
				clearRound(&view)
			}

			acks := 0
			for u := 0; u < n; u++ {
				want := ref.nodes[u]
				acks += len(ref.acks[u])
				for _, s := range sides[:2] {
					got := s.nodes[u]
					if got.Active() != want.Active() {
						t.Errorf("%s node %d: Active diverged (%v, oracle %v)", s.name, u, got.Active(), want.Active())
					}
					if g, w := sending(got), sending(want); g != w {
						t.Errorf("%s node %d: sending state diverged (%v, oracle %v)", s.name, u, g, w)
					}
					if *s.rngs[u] != *ref.rngs[u] {
						t.Errorf("%s node %d: private coin stream diverged from the oracle's", s.name, u)
					}
					if len(s.evs[u]) != len(ref.evs[u]) {
						t.Fatalf("%s node %d: %d events vs oracle %d", s.name, u, len(s.evs[u]), len(ref.evs[u]))
					}
					for i := range s.evs[u] {
						if s.evs[u][i] != ref.evs[u][i] {
							t.Errorf("%s node %d event %d: %+v vs oracle %+v", s.name, u, i, s.evs[u][i], ref.evs[u][i])
						}
					}
					sameIDs(t, s.name+" acks", u, s.acks[u], ref.acks[u])
					sameIDs(t, s.name+" recvs", u, s.recvs[u], ref.recvs[u])
				}
			}
			if sent == 0 {
				t.Error("execution produced no data transmissions; equivalence vacuous")
			}
			if acks == 0 {
				t.Error("execution produced no acks; the ack edge went untested")
			}
			if shared == 0 {
				t.Error("no two sending nodes ever decoded one seed; the shared commitment went untested")
			}
			most := 0
			for _, h := range bank.heard {
				if h != nil {
					most = max(most, len(h.srcs))
				}
			}
			if most <= heardInline {
				t.Errorf("no node heard more than %d sources; the dedupe set's overflow went untested", heardInline)
			}
			t.Logf("%d of %d rounds had two or more sending nodes on one seed", shared, rounds)
		})
	}
}

// newRoundView returns an all-zero round view over n nodes, as the engine
// hands one to a bank's first TransmitRange.
func newRoundView(n int) sim.RoundView {
	return sim.RoundView{Payloads: make([]any, n), Transmit: make([]uint8, n),
		Rx: make([]sim.RxSlot, n), Reached: make([]uint64, (n+63)/64)}
}

// markReached sets v's Reached bits from its slots, as the engine does
// before the receive phase.
func markReached(v *sim.RoundView) {
	for u, s := range v.Rx {
		if s != 0 {
			v.Reached[u>>6] |= 1 << (u & 63)
		}
	}
}

// clearRound zeroes what the engine clears after a round's statistics: the
// slots, the Reached bits and the Transmit column.
func clearRound(v *sim.RoundView) {
	clear(v.Rx)
	clear(v.Reached)
	clear(v.Transmit)
}

// sharingSenders checks the bank's sender-only state after round tr: a
// node holds a coin buffer only while it is sending. It reports whether two
// or more sending nodes hold valid coins decoded from one seed value.
func sharingSenders(t *testing.T, bk *NodeStateBank, tr int) bool {
	t.Helper()
	holders := make(map[xrand.Seed]int)
	shared := false
	for u := 0; u < bk.n; u++ {
		if bk.coins[u] == nil {
			continue
		}
		if !sending(bk.Node(u)) {
			t.Fatalf("round %d node %d: holds a coin buffer while receiving", tr, u)
		}
		if bk.flags[u]&bankCoinsValid != 0 {
			holders[bk.committed[u]]++
			shared = shared || holders[bk.committed[u]] > 1
		}
	}
	return shared
}

// sending reports whether a node of either representation is in the
// sending state.
func sending(nd Service) bool {
	switch nd := nd.(type) {
	case *LBAlg:
		return nd.state == StateSending
	case *BankNode:
		return nd.bank.flags[nd.u]&bankSendingStarted != 0
	}
	panic(fmt.Sprintf("sending: unexpected node type %T", nd))
}

// sameIDs requires two per-node message id sequences to be identical.
func sameIDs(t *testing.T, what string, u int, got, want []sim.MsgID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s node %d: %d vs oracle %d", what, u, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s node %d #%d: %v vs oracle %v", what, u, i, got[i], want[i])
		}
	}
}

// TestNodeStateBankFootprint pins what the bank allocates. The constructor
// allocates per-node columns only: coin buffers and dedupe sets are
// allocated by the nodes that use them, so no construction cost follows the
// phase length, and the columns stay under 256 B per node. Seed machines
// and streams are rows of those columns and seeds are values, so Init
// allocates nothing, whatever κ, and the round-1 reseed pass, which resets
// every machine in place, allocates nothing per node.
func TestNodeStateBankFootprint(t *testing.T) {
	const n = 20000
	type footprint struct {
		ctor, init      float64 // B/node: the constructor, and every Init
		reseed          uint64  // B: the round-1 TransmitRange pass
		phaseLen, kappa int
	}
	perNode := func(eps float64) footprint {
		p, err := DeriveParams(8, 8, 1, eps)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPhasePlan(p)
		envs := make([]sim.NodeEnv, n)
		for u := range envs {
			envs[u] = sim.NodeEnv{ID: u, Delta: 8, DeltaPrime: 8, R: 1,
				Rng: xrand.NodeSource(1, u), Rec: nopRec{}}
		}
		view := newRoundView(n)
		var before, built, inited, reseeded runtime.MemStats
		runtime.ReadMemStats(&before)
		bk := NewNodeStateBank(plan, n)
		runtime.ReadMemStats(&built)
		for u := range envs {
			bk.Node(u).Init(&envs[u])
		}
		runtime.ReadMemStats(&inited)
		bk.TransmitRange(1, 0, n, &view)
		runtime.ReadMemStats(&reseeded)
		runtime.KeepAlive(bk)
		return footprint{
			ctor:     float64(built.TotalAlloc-before.TotalAlloc) / n,
			init:     float64(inited.TotalAlloc-built.TotalAlloc) / n,
			reseed:   reseeded.TotalAlloc - inited.TotalAlloc,
			phaseLen: plan.phaseLen, kappa: p.Kappa,
		}
	}
	fs, fl := perNode(0.25), perNode(0.05)
	short, shortLen := fs.ctor, fs.phaseLen
	long, longLen := fl.ctor, fl.phaseLen
	if shortLen == longLen {
		t.Fatalf("both plans have phase length %d; the comparison is vacuous", shortLen)
	}
	if math.Abs(short-long) >= 1 {
		t.Errorf("constructor allocates %.1f B/node at phase length %d but %.1f B/node at %d; it must not depend on the phase length",
			short, shortLen, long, longLen)
	}
	for _, b := range []float64{short, long} {
		if b >= 256 {
			t.Errorf("constructor allocates %.1f B/node, want < 256", b)
		}
	}
	t.Logf("%.1f B/node at phase length %d, %.1f B/node at %d", short, shortLen, long, longLen)

	if fs.kappa == fl.kappa {
		t.Fatalf("both plans have κ = %d; the comparison is vacuous", fs.kappa)
	}
	// The runtime may itself allocate a few hundred bytes while Init or the
	// pass runs; one allocation per node would cost at least 8 B/node.
	for _, f := range []footprint{fs, fl} {
		if f.init >= 1 {
			t.Errorf("Init allocates %.1f B/node at κ = %d, want 0", f.init, f.kappa)
		}
		if b := float64(f.reseed) / n; b >= 1 {
			t.Errorf("the round-1 reseed pass allocates %d B (%.1f B/node) at κ = %d, want 0 per node",
				f.reseed, b, f.kappa)
		}
	}
	t.Logf("Init: %.1f B/node at κ = %d, %.1f B/node at κ = %d", fs.init, fs.kappa, fl.init, fl.kappa)
}

// TestNodeStateBankMissedCommit pins the commitment edge of the bank's seed
// rows. A row copies its machine's decided seed into committed[u] at the
// decision, since a heard leader redraws its Msg at its next preamble, but
// per-node LBAlg commits only at the last preamble round. So a node that
// decides and is down at that round holds no commitment, and under
// k = 3 sits out the body-only phases that follow. Every node of a
// four-node clique broadcasts from round 1; node 0 is down at phase 1's
// commit round. Every round the bank's transmit decisions, payloads and
// coins-valid bits must equal per-node LBAlg's.
func TestNodeStateBankMissedCommit(t *testing.T) {
	const n = 4
	p, err := DeriveParams(8, 8, 1, 0.25, WithSeedEveryKPhases(3))
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPhasePlan(p)
	bank := NewNodeStateBank(plan, n)
	oracle := make([]*LBAlg, n)
	for u := range n {
		oracle[u] = NewLBAlgWithPlan(plan)
		for _, nd := range []Service{bank.Node(u), oracle[u]} {
			nd.Init(&sim.NodeEnv{ID: u, Delta: 8, DeltaPrime: 8, R: 1, Rng: xrand.NodeSource(3, u), Rec: nopRec{}})
			if _, err := nd.Bcast(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	view := newRoundView(n)
	view.Down = make([]bool, n)
	payloads := make([]any, n)
	commit := p.Ts // phase 1's last preamble round
	decided := false
	for tr := 1; tr <= 3*p.PhaseLen(); tr++ {
		view.Down[0] = tr == commit
		if tr == commit {
			decided = bank.seeds[0].Status() != seedagree.StatusActive
		}
		bank.TransmitRange(tr, 0, n, &view)
		var txs []int
		for u := range n {
			payloads[u] = nil
			tx := false
			if !view.Down[u] {
				payloads[u], tx = oracle[u].Transmit(tr)
			}
			if tx != (view.Transmit[u] == 1) || tx && !samePayload(payloads[u], view.Payloads[u]) {
				t.Fatalf("round %d node %d: bank transmits %v %v, oracle %v %v",
					tr, u, view.Transmit[u], view.Payloads[u], tx, payloads[u])
			}
			if tx {
				txs = append(txs, u)
			}
		}
		// A clique channel: a lone transmitter reaches every other node.
		for u := range n {
			switch {
			case len(txs) == 1:
				view.Rx[u] = sim.Heard(int32(txs[0]))
			case len(txs) > 1:
				view.Rx[u] = sim.RxCollision
			}
		}
		markReached(&view)
		bank.ReceiveRange(tr, 0, n, &view)
		clearRound(&view)
		for u := range n {
			switch {
			case view.Down[u]:
			case len(txs) == 1 && txs[0] != u:
				oracle[u].Receive(tr, txs[0], payloads[txs[0]], true)
			default:
				oracle[u].Receive(tr, sim.NoTransmitter, nil, false)
			}
			if got, want := bank.flags[u]&bankCoinsValid != 0, oracle[u].coins.valid; got != want {
				t.Fatalf("round %d node %d: bank coins valid %v, oracle %v", tr, u, got, want)
			}
		}
	}
	if !decided {
		t.Fatal("node 0 had not decided when it went down; the missed commit is untested")
	}
}

// TestNodeStateBankWorkerPool runs one banked execution on the sequential
// driver and the worker pool at 2, 3 and 7 workers and requires the same
// trace, event for event, and the same channel statistics. n = 1,000 is
// not a multiple of 64, so no range boundary falls on a word of the
// Reached bits, and every tenth node is a saturated sender. The test also
// checks that the visit list's leaders and body senders straddle the
// ranges of every worker count: at each checked round, every range holds
// a listed node, so each range call's binary search and every piece's
// filler are exercised.
func TestNodeStateBankWorkerPool(t *testing.T) {
	const n = 1000
	d, err := dualgraph.RandomGeometric(n, 16, 16, 1.5, dualgraph.GreyUnreliable, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPhasePlan(p)
	var senders []int
	for u := 0; u < n; u += 10 {
		senders = append(senders, u)
	}
	run := func(driver sim.Driver, workers int) *sim.Trace {
		bank := NewNodeStateBank(plan, n)
		bank.SetRecordEvents(true)
		svcs := make([]Service, n)
		for u := range svcs {
			svcs[u] = bank.Node(u)
		}
		e, err := sim.New(sim.Config{Dual: d, Bank: bank, Sched: sched.Random{P: 0.5, Seed: 3},
			Env: NewSaturatingEnv(svcs, senders), Seed: 17, Driver: driver, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for r := 1; r <= 2*p.PhaseLen(); r++ {
			e.Step()
			pos := (r - 1) % p.PhaseLen()
			if pos != 1 && pos != p.Ts+1 {
				continue // one preamble round with leaders, one body round with senders
			}
			listed := listedNodes(bank)
			for _, w := range []int{2, 3, 7} {
				chunk := (n + w - 1) / w
				for lo := 0; lo < n; lo += chunk {
					hi := min(lo+chunk, n)
					i, _ := slices.BinarySearch(listed, lo)
					if i == len(listed) || listed[i] >= hi {
						t.Fatalf("round %d: no listed node in [%d, %d) of %d workers; the straddle is untested", r, lo, hi, w)
					}
				}
			}
		}
		return e.Trace()
	}
	ref := run(sim.DriverSequential, 0)
	if ref.Len() == 0 || ref.Deliveries == 0 {
		t.Fatal("the reference run recorded nothing; the comparison is vacuous")
	}
	refEvs := slices.Collect(ref.Events())
	for _, w := range []int{2, 3, 7} {
		got := run(sim.DriverWorkerPool, w)
		if got.Transmissions != ref.Transmissions || got.Deliveries != ref.Deliveries || got.Collisions != ref.Collisions {
			t.Errorf("%d workers: channel statistics %d/%d/%d, sequential %d/%d/%d", w,
				got.Transmissions, got.Deliveries, got.Collisions, ref.Transmissions, ref.Deliveries, ref.Collisions)
		}
		if evs := slices.Collect(got.Events()); !slices.Equal(evs, refEvs) {
			t.Errorf("%d workers: %d events differ from the sequential run's %d", w, len(evs), len(refEvs))
		}
	}
}

// listedNodes decodes the bank's visit list.
func listedNodes(bk *NodeStateBank) []int {
	var out []int
	vl := bk.visits
	for u, i := vl.next(vl.first(0), bk.n); u < bk.n; u, i = vl.next(i, bk.n) {
		out = append(out, u)
	}
	return out
}
