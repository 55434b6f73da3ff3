package core

import (
	"testing"
	"testing/quick"

	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// randomizedParams derives a valid Params from quick-generated raw values,
// spanning degenerate degree bounds, both preamble cadences
// (SeedEveryKPhases ∈ 1..4), and the ε range.
func randomizedParams(t testing.TB, rawDelta, rawSlack, rawEps, rawK uint8) Params {
	t.Helper()
	delta := 1 + int(rawDelta)%64
	deltaPrime := delta + int(rawSlack)%64
	eps := 0.05 + 0.45*float64(rawEps)/255
	k := 1 + int(rawK)%4
	p, err := DeriveParams(delta, deltaPrime, 1+float64(rawSlack%3)/2, eps,
		WithSeedEveryKPhases(k))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPhasePlanMatchesIncrementalArithmetic pins the plan to the
// incremental per-round logic it replaced: div/mod by the phase length for
// the coordinates, the (phase−1) mod k rule for the preamble cadence, and
// the pos < Ts cut between preamble and body rounds.
func TestPhasePlanMatchesIncrementalArithmetic(t *testing.T) {
	f := func(rawDelta, rawSlack, rawEps, rawK uint8, rawT uint32) bool {
		p := randomizedParams(t, rawDelta, rawSlack, rawEps, rawK)
		pl := NewPhasePlan(p)
		if pl.phaseLen != p.PhaseLen() {
			return false
		}
		tr := 1 + int(rawT)%(20*p.PhaseLen())
		phase, pos := pl.PhaseOf(tr)
		if phase != (tr-1)/p.PhaseLen()+1 || pos != (tr-1)%p.PhaseLen() {
			return false
		}
		for ph := phase; ph <= phase+2*p.SeedEveryKPhases; ph++ {
			wantPre := (ph-1)%p.SeedEveryKPhases == 0
			if pl.RunsPreamble(ph) != wantPre {
				return false
			}
			preLen := 0
			if wantPre {
				preLen = p.Ts
			}
			if pl.preambleLen(ph) != preLen || pl.BodyRounds(ph) != p.PhaseLen()-preLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// refBits is a bit-by-bit reader over a seed's words: the incremental
// per-round consumption the plan batched away, kept as plain as possible so
// it can serve as the oracle.
type refBits struct {
	words  []uint64
	n, cur int
}

// consume reads the next k bits little-endian (the first bit read is the
// least significant). It reports false, reading nothing, if fewer than k
// bits remain.
func (r *refBits) consume(k int) (uint64, bool) {
	if r.n-r.cur < k {
		return 0, false
	}
	var v uint64
	for i := 0; i < k; i++ {
		bit := r.cur + i
		v |= (r.words[bit/64] >> (bit % 64) & 1) << i
	}
	r.cur += k
	return v, true
}

// refDecodeCoin replays the incremental bodyRound consumption the plan
// batched away: K1 participation bits, then K2 selection bits only on
// all-zero participation coins, each field all-or-nothing against the
// remaining seed.
func refDecodeCoin(seed *refBits, k1, k2, logDelta int) uint8 {
	v, ok := seed.consume(k1)
	if !ok || v != 0 {
		return 0
	}
	bv, ok := seed.consume(k2)
	if !ok {
		return 0
	}
	return uint8(1 + int(bv)%logDelta)
}

// FuzzDecodeCoins: decodeCoins must produce the byte sequence of per-round
// refDecodeCoin walks and leave the cursor exactly where the incremental
// walk would — from any start cursor (a k > 1 catch-up decode never starts
// at 0), across word boundaries, and on seeds too short for their schedule
// (exhaustion fails closed per field). skipCoins must advance the cursor
// identically while materialising nothing. The reference reads words taken
// straight from the source's stream, so the target also checks that a
// drawn seed regenerates them. The seed corpus is 400 fixed-seed cases over
// κ < 1200, k1, k2 < 13, log Δ ≤ 64 and fewer than 50 rounds, plus the
// boundaries κ ∈ {0, 64, 65}, k1 + k2 = 0 and start = κ.
func FuzzDecodeCoins(f *testing.F) {
	gen := xrand.New(77)
	for range 400 {
		kappa := gen.Intn(1200)
		f.Add(gen.Uint64(), uint16(kappa), uint8(gen.Intn(13)), uint8(gen.Intn(13)),
			uint8(gen.Intn(64)), uint8(gen.Intn(50)), uint16(gen.Intn(kappa+1)))
	}
	for _, kappa := range []uint16{0, 64, 65} {
		f.Add(uint64(kappa), kappa, uint8(3), uint8(2), uint8(2), uint8(40), uint16(0))
		f.Add(uint64(kappa), kappa, uint8(0), uint8(0), uint8(2), uint8(40), kappa/2)
		f.Add(uint64(kappa), kappa, uint8(3), uint8(2), uint8(2), uint8(40), kappa)
	}
	f.Fuzz(func(t *testing.T, state uint64, rawKappa uint16, rawK1, rawK2, rawLD, rawRounds uint8, rawStart uint16) {
		kappa := int(rawKappa) % 5000 // past 4096 bits the words no longer fit the stack buffer
		k1, k2 := int(rawK1)%13, int(rawK2)%13
		logDelta := 1 + int(rawLD)%64
		rounds := int(rawRounds) % 50
		start := int(rawStart) % (kappa + 1)

		sp, err := seedagree.NewParams(0.25, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPhasePlan(Params{Eps1: 0.2, Eps2: 0.1, R: 1, Delta: 4, DeltaPrime: 4,
			LogDelta: logDelta, SeedParams: sp, Ts: sp.Rounds(), Tprog: rounds,
			Tack: 1, Kappa: kappa, K1: k1, K2: k2, SeedEveryKPhases: 1})

		stream := xrand.New(state)
		ref := &refBits{words: make([]uint64, (kappa+63)/64), n: kappa, cur: start}
		for i := range ref.words {
			ref.words[i] = stream.Uint64()
		}
		seed := xrand.New(state).DrawSeed(kappa)

		cur := int32(start)
		dst := make([]uint8, rounds)
		pl.decodeCoins(seed, &cur, dst)
		for j, b := range dst {
			if want := refDecodeCoin(ref, k1, k2, logDelta); b != want {
				t.Fatalf("round %d: decoded %d, reference %d", j, b, want)
			}
		}
		if int(cur) != ref.cur {
			t.Fatalf("decode left the cursor at %d, reference at %d", cur, ref.cur)
		}
		skip := int32(start)
		pl.skipCoins(seed, &skip, rounds)
		if skip != cur {
			t.Fatalf("skip left the cursor at %d, decode at %d", skip, cur)
		}
	})
}

// refLB is the pre-plan LBAlg: the incremental per-round implementation
// (div/mod phase arithmetic, per-round refBits.consume) ported verbatim
// as the equivalence oracle. It mirrors the transmit-side state machine,
// ack timing and recv outputs; TestPlanEquivalence drives it in lockstep
// with the plan-driven LBAlg over identical randomness and asserts
// identical behavior.
type refLB struct {
	p        Params
	phaseLen int
	id       int
	rng      *xrand.Source

	seed      *seedagree.Alg
	committed *refBits

	state          State
	pending        *Message
	frame          any
	sendingStarted bool
	phasesLeft     int
	seq            int

	seen  map[sim.MsgID]struct{}
	acks  []sim.MsgID
	recvs []sim.MsgID
}

func newRefLB(p Params, id int, rng *xrand.Source) *refLB {
	return &refLB{p: p, phaseLen: p.PhaseLen(), id: id, rng: rng,
		state: StateReceiving, seen: make(map[sim.MsgID]struct{}),
		seed: seedagree.NewAlgWithPlan(seedagree.NewPlan(p.SeedParams), id, rng)}
}

func (l *refLB) Bcast(payload any) (sim.MsgID, error) {
	if l.pending != nil {
		return 0, errAlreadyBroadcasting
	}
	l.seq++
	m := Message{ID: sim.NewMsgID(l.id, l.seq), Payload: payload}
	l.pending = &m
	l.frame = DataMsg{Msg: m}
	l.sendingStarted = false
	return m.ID, nil
}

var errAlreadyBroadcasting = &refErr{}

type refErr struct{}

func (*refErr) Error() string { return "ref: already broadcasting" }

func (l *refLB) runsPreamble(phase int) bool {
	return (phase-1)%l.p.SeedEveryKPhases == 0
}

func (l *refLB) Transmit(t int) (any, bool) {
	phase, pos := (t-1)/l.phaseLen+1, (t-1)%l.phaseLen
	if pos == 0 {
		if l.pending != nil && !l.sendingStarted {
			l.sendingStarted = true
			l.state = StateSending
			l.phasesLeft = l.p.Tack
		}
		if l.runsPreamble(phase) {
			l.seed.Reset()
			l.committed = nil
		}
	}
	if pos < l.p.Ts && l.runsPreamble(phase) {
		return l.seed.Transmit(pos + 1)
	}
	return l.bodyRound()
}

func (l *refLB) bodyRound() (any, bool) {
	if l.committed == nil {
		return nil, false
	}
	v, ok := l.committed.consume(l.p.K1)
	if !ok {
		return nil, false
	}
	if v != 0 {
		return nil, false
	}
	bv, ok := l.committed.consume(l.p.K2)
	if !ok {
		return nil, false
	}
	if l.state != StateSending || l.pending == nil {
		return nil, false
	}
	b := 1 + int(bv)%l.p.LogDelta
	if l.rng.Bits(b) != 0 {
		return nil, false
	}
	return l.frame, true
}

func (l *refLB) Receive(t, from int, payload any, ok bool) {
	phase, pos := (t-1)/l.phaseLen+1, (t-1)%l.phaseLen
	if pos < l.p.Ts && l.runsPreamble(phase) {
		l.seed.Receive(pos+1, payload, ok)
		if pos == l.p.Ts-1 {
			l.seed.Finalize()
			d := l.seed.Decision()
			l.committed = &refBits{words: d.Seed.Words(nil), n: d.Seed.Len()}
		}
		return
	}
	if ok {
		if dm, isData := payload.(DataMsg); isData {
			if _, dup := l.seen[dm.Msg.ID]; !dup {
				l.seen[dm.Msg.ID] = struct{}{}
				l.recvs = append(l.recvs, dm.Msg.ID)
			}
		}
	}
	if pos == l.phaseLen-1 && l.state == StateSending {
		l.phasesLeft--
		if l.phasesLeft <= 0 {
			m := *l.pending
			l.pending = nil
			l.frame = nil
			l.sendingStarted = false
			l.state = StateReceiving
			l.acks = append(l.acks, m.ID)
		}
	}
}

// samePayload compares on-air frames structurally: each cluster's leaders
// advertise pointers to their own Msg values, so seed advertisements
// compare by value rather than pointer identity.
func samePayload(a, b any) bool {
	if am, ok := a.(*seedagree.Msg); ok {
		bm, ok := b.(*seedagree.Msg)
		return ok && *am == *bm
	}
	return a == b
}

// TestPlanEquivalence drives the plan-driven LBAlg and the incremental
// reference through identical executions — same per-node randomness, same
// staggered bcast schedule, same lossy single-hop channel — and requires
// byte-identical behavior: every round's transmit decision and payload,
// every recv output, every ack, and each node's private coin stream. Runs cover
// the paper's schedule (k = 1) and the Section 4.2 variant (k = 3), whose
// mid-cycle sender arrivals exercise the deferred decode and cursor-debt
// settlement.
func TestPlanEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seedEvery int
	}{
		{"paper-k1", 1},
		{"ablation-k3", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 6
			p, err := DeriveParams(8, 8, 1, 0.25, WithSeedEveryKPhases(tc.seedEvery))
			if err != nil {
				t.Fatal(err)
			}
			plan := NewPhasePlan(p)

			var acks [][]sim.MsgID
			var recvs [][]sim.MsgID
			news := make([]*LBAlg, n)
			refs := make([]*refLB, n)
			rngs := make([]*xrand.Source, n)
			for u := 0; u < n; u++ {
				news[u] = NewLBAlgWithPlan(plan)
				rngs[u] = xrand.NodeSource(3, u)
				news[u].Init(&sim.NodeEnv{ID: u, Delta: 8, DeltaPrime: 8, R: 1,
					Rng: rngs[u], Rec: nopRec{}})
				refs[u] = newRefLB(p, u, xrand.NodeSource(3, u))
				acks = append(acks, nil)
				recvs = append(recvs, nil)
				uu := u
				news[u].SetOnAck(func(m Message) { acks[uu] = append(acks[uu], m.ID) })
				news[u].SetOnRecv(func(m Message, _ int) { recvs[uu] = append(recvs[uu], m.ID) })
			}

			rounds := (2*tc.seedEvery + 2) * p.Tack * p.PhaseLen()
			loss := xrand.New(99)
			sent := 0 // data transmissions
			for tr := 1; tr <= rounds; tr++ {
				// Staggered bcast inputs: different nodes go active at
				// different points of the k-phase cycles (mid-phase, so the
				// sending state starts at the next boundary).
				if tr%(p.PhaseLen()/2+3) == 0 {
					u := tr % n
					idNew, errNew := news[u].Bcast(tr)
					idRef, errRef := refs[u].Bcast(tr)
					if (errNew == nil) != (errRef == nil) || idNew != idRef {
						t.Fatalf("round %d: bcast accepted differently (new %v/%v, ref %v/%v)",
							tr, idNew, errNew, idRef, errRef)
					}
				}

				var payloadNew, payloadRef any
				fromNew, fromRef, txNew, txRef := -1, -1, 0, 0
				for u := 0; u < n; u++ {
					pn, tn := news[u].Transmit(tr)
					pr, rn := refs[u].Transmit(tr)
					if tn != rn {
						t.Fatalf("round %d node %d: transmit decision diverged (new %v, ref %v)", tr, u, tn, rn)
					}
					if tn {
						if !samePayload(pn, pr) {
							t.Fatalf("round %d node %d: payload diverged (%v vs %v)", tr, u, pn, pr)
						}
						txNew++
						fromNew, payloadNew = u, pn
						if _, data := pn.(DataMsg); data {
							sent++
						}
						txRef++
						fromRef, payloadRef = u, pr
					}
				}
				drop := loss.Coin(0.3)
				deliver := txNew == 1 && !drop
				for u := 0; u < n; u++ {
					if deliver && u != fromNew {
						news[u].Receive(tr, fromNew, payloadNew, true)
						refs[u].Receive(tr, fromRef, payloadRef, true)
					} else {
						news[u].Receive(tr, -1, nil, false)
						refs[u].Receive(tr, -1, nil, false)
					}
				}
			}

			for u := 0; u < n; u++ {
				if *rngs[u] != *refs[u].rng {
					t.Errorf("node %d: private coin stream diverged from the reference's", u)
				}
				if len(acks[u]) != len(refs[u].acks) {
					t.Fatalf("node %d: %d acks vs ref %d", u, len(acks[u]), len(refs[u].acks))
				}
				for i := range acks[u] {
					if acks[u][i] != refs[u].acks[i] {
						t.Errorf("node %d ack %d: %v vs ref %v", u, i, acks[u][i], refs[u].acks[i])
					}
				}
				if len(recvs[u]) != len(refs[u].recvs) {
					t.Fatalf("node %d: %d recvs vs ref %d", u, len(recvs[u]), len(refs[u].recvs))
				}
				for i := range recvs[u] {
					if recvs[u][i] != refs[u].recvs[i] {
						t.Errorf("node %d recv %d: %v vs ref %v", u, i, recvs[u][i], refs[u].recvs[i])
					}
				}
			}
			if sent == 0 {
				t.Error("execution produced no data transmissions; equivalence vacuous")
			}
		})
	}
}
