package core

import (
	"testing"

	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// captureRec is a Recorder that appends every event to a per-node list, so
// the lockstep test can compare the bank's full event streams (hear, recv,
// ack, bcast) against the per-node oracle's, not just the callback outputs.
type captureRec struct{ evs *[]sim.Event }

func (r captureRec) Record(ev sim.Event) { *r.evs = append(*r.evs, ev) }

// lockstepNode is the per-node surface both representations expose.
type lockstepNode interface {
	Service
	State() State
	BodyStats() (participations, transmissions int)
}

// lockstepSide is one representation under the lockstep test: its nodes
// and everything they emitted.
type lockstepSide struct {
	name  string
	nodes []lockstepNode
	evs   [][]sim.Event
	acks  [][]sim.MsgID
	recvs [][]sim.MsgID
}

func newLockstepSide(name string, nodes []lockstepNode) *lockstepSide {
	n := len(nodes)
	s := &lockstepSide{name: name, nodes: nodes,
		evs: make([][]sim.Event, n), acks: make([][]sim.MsgID, n), recvs: make([][]sim.MsgID, n)}
	for u, nd := range nodes {
		nd.Init(&sim.NodeEnv{ID: u, Delta: 8, DeltaPrime: 8, R: 1,
			Rng: xrand.NodeSource(7, u), Rec: captureRec{&s.evs[u]}})
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
// Active/State, and the body-round statistics. The channel fills the
// RoundView the way the engine does: Touched marks every reached node —
// clean receptions, collisions (Count ≥ 2), transmitters' own stamped slots
// and down nodes — while silent listeners' Rx slots and non-transmitters'
// payloads hold poison that a bank must never read. The range side runs in
// three ranges whose boundaries fall inside 8-node words, so the word scans
// meet ragged heads and tails. Runs cover the paper's k = 1 schedule and
// the Section 4.2 k = 3 variant whose mid-cycle sender arrivals exercise
// the deferred decode and cursor-debt settlement.
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
			ranges := [][2]int{{0, 5}, {5, 22}, {22, n}}
			p, err := DeriveParams(8, 8, 1, 0.25, WithSeedEveryKPhases(tc.seedEvery))
			if err != nil {
				t.Fatal(err)
			}
			plan := NewPhasePlan(p)

			bank := NewNodeStateBank(plan, n)
			handles := NewNodeStateBank(plan, n)
			var bankNodes, handleNodes, oracleNodes []lockstepNode
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

			view := sim.RoundView{
				Payloads: make([]any, n),
				Transmit: make([]bool, n),
				Touched:  make([]uint8, n),
				Rx:       make([]sim.RxSlot, n),
				Down:     make([]bool, n),
			}
			type poison struct{}
			pPayloads := [][]any{nil, make([]any, n), make([]any, n)}
			pTransmit := [][]bool{nil, make([]bool, n), make([]bool, n)}
			heard := make([]int, n) // per node: the transmitter heard, or -1

			rounds := (2*tc.seedEvery + 2) * p.Tack * p.PhaseLen()
			// Crash node 2's radio for a window in the middle of the run: every
			// side must skip it identically (no RNG draws, no receptions).
			downFrom, downTo := rounds/3, rounds/2
			loss := xrand.New(41)
			var txs []int
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
				view.Down[2] = tr >= downFrom && tr < downTo

				// Transmit phase: the bank through the batch surface, over stale
				// payloads; the other sides per node with the engine's stepTx
				// semantics.
				for u := range view.Payloads {
					view.Payloads[u] = poison{}
				}
				for _, r := range ranges {
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
					for i := 1; i < 3; i++ {
						if view.Transmit[u] != pTransmit[i][u] {
							t.Fatalf("round %d node %d: %s transmit decision diverged (bank %v, %s %v)",
								tr, u, sides[i].name, view.Transmit[u], sides[i].name, pTransmit[i][u])
						}
						if view.Transmit[u] && !samePayload(view.Payloads[u], pPayloads[i][u]) {
							t.Fatalf("round %d node %d: payload diverged (bank %v, %s %v)",
								tr, u, view.Payloads[u], sides[i].name, pPayloads[i][u])
						}
					}
					if view.Transmit[u] {
						txs = append(txs, u)
					}
				}

				// Channel: a silent listener keeps a poisoned slot that looks
				// like a clean reception; a reached node is touched with a clean
				// reception of one transmitter or a collision. Transmitters and
				// down nodes are reached too — ReceiveRange must filter them.
				for u := 0; u < n; u++ {
					heard[u] = -1
					poisonFrom := u
					if len(txs) > 0 {
						poisonFrom = txs[0] // a real frame, heard only if misread
					}
					view.Rx[u] = sim.RxSlot{Stamp: int32(tr), Count: 1, From: int32(poisonFrom)}
					if len(txs) == 0 || loss.Coin(0.2) {
						continue
					}
					view.Touched[u] = 1
					if loss.Coin(0.3) {
						view.Rx[u].Count = int32(2 + loss.Intn(3))
						continue
					}
					from := txs[loss.Intn(len(txs))]
					view.Rx[u].From = int32(from)
					if !view.Transmit[u] && !view.Down[u] {
						heard[u] = from
					}
				}
				for _, r := range ranges {
					bank.ReceiveRange(tr, r[0], r[1], &view)
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
				clear(view.Touched)
			}

			sent, acks := 0, 0
			for u := 0; u < n; u++ {
				want := ref.nodes[u]
				po, to := want.BodyStats()
				sent += to
				acks += len(ref.acks[u])
				for _, s := range sides[:2] {
					got := s.nodes[u]
					if got.Active() != want.Active() {
						t.Errorf("%s node %d: Active diverged (%v, oracle %v)", s.name, u, got.Active(), want.Active())
					}
					if got.State() != want.State() {
						t.Errorf("%s node %d: State diverged (%v, oracle %v)", s.name, u, got.State(), want.State())
					}
					if pb, tb := got.BodyStats(); pb != po || tb != to {
						t.Errorf("%s node %d: body stats diverged (%d/%d, oracle %d/%d)", s.name, u, pb, tb, po, to)
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
		})
	}
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
