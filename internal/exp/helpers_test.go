package exp

import (
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
)

// scripted transmits DataMsg payloads in fixed rounds, to exercise the
// measurement helpers without full LBAlg machinery.
type scripted struct {
	env *sim.NodeEnv
	tx  map[int]core.Message
}

func (s *scripted) Init(env *sim.NodeEnv) { s.env = env }

func (s *scripted) Transmit(t int) (any, bool) {
	if m, ok := s.tx[t]; ok {
		return core.DataMsg{Msg: m}, true
	}
	return nil, false
}

func (s *scripted) Receive(t, from int, payload any, ok bool) {
	if !ok {
		return
	}
	if dm, isData := payload.(core.DataMsg); isData {
		s.env.Rec.Record(sim.Event{Round: t, Node: s.env.ID, Kind: sim.EvHear, From: from, MsgID: dm.Msg.ID})
	}
}

func twoNodeEngine(t *testing.T, txRounds ...int) *sim.Engine {
	t.Helper()
	d, err := dualgraph.Abstract(2, []dualgraph.Edge{{U: 0, V: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := map[int]core.Message{}
	for i, r := range txRounds {
		tx[r] = core.Message{ID: sim.NewMsgID(1, i+1)}
	}
	procs := []sim.Process{&scripted{tx: map[int]core.Message{}}, &scripted{tx: tx}}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFirstHearRound(t *testing.T) {
	e := twoNodeEngine(t, 5)
	if got := firstHearRound(e, 0, 20); got != 5 {
		t.Errorf("firstHearRound = %d, want 5", got)
	}
}

func TestFirstHearRoundTimesOut(t *testing.T) {
	e := twoNodeEngine(t) // never transmits
	if got := firstHearRound(e, 0, 7); got != 7 {
		t.Errorf("firstHearRound = %d, want budget 7", got)
	}
}

func TestHeardAllRound(t *testing.T) {
	// Three senders deliver to node 0 at rounds 2, 4, 9.
	d, err := dualgraph.Abstract(4, []dualgraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := []sim.Process{
		&scripted{tx: map[int]core.Message{}},
		&scripted{tx: map[int]core.Message{2: {ID: sim.NewMsgID(1, 1)}}},
		&scripted{tx: map[int]core.Message{4: {ID: sim.NewMsgID(2, 1)}}},
		&scripted{tx: map[int]core.Message{9: {ID: sim.NewMsgID(3, 1)}}},
	}
	e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: sched.Never{}})
	if err != nil {
		t.Fatal(err)
	}
	allAt, firstAt := heardAllRound(e, 0, 3, 30)
	if firstAt != 2 {
		t.Errorf("firstAt = %d, want 2", firstAt)
	}
	if allAt != 9 {
		t.Errorf("allAt = %d, want 9", allAt)
	}
}

func TestHeardAllRoundTimesOut(t *testing.T) {
	e := twoNodeEngine(t, 3)
	allAt, firstAt := heardAllRound(e, 0, 2, 12) // only one source exists
	if firstAt != 3 {
		t.Errorf("firstAt = %d, want 3", firstAt)
	}
	if allAt != 12 {
		t.Errorf("allAt = %d, want budget 12", allAt)
	}
}

func TestLemma42BoundMonotone(t *testing.T) {
	p1, err := core.DeriveParams(8, 8, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.DeriveParams(64, 64, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if lemma42Bound(p1) <= lemma42Bound(p2) {
		t.Error("Lemma 4.2 bound should shrink as Δ grows")
	}
	p3, err := core.DeriveParams(8, 8, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if lemma42Bound(p1) <= lemma42Bound(p3) {
		t.Error("Lemma 4.2 bound should shrink as r grows")
	}
}
