package world

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/sim"
)

// TestSummarize feeds a hand-written trace through the metric extraction:
// two broadcasts from node 1, one acked after reaching its only neighbor
// (reliable), one acked without (unreliable).
func TestSummarize(t *testing.T) {
	tr := &sim.Trace{}
	m1, m2 := sim.NewMsgID(1, 1), sim.NewMsgID(1, 2)
	events := []sim.Event{
		{Round: 1, Node: 1, Kind: sim.EvBcast, MsgID: m1},
		{Round: 3, Node: 2, Kind: sim.EvRecv, From: 1, MsgID: m1},
		{Round: 5, Node: 1, Kind: sim.EvAck, MsgID: m1},
		{Round: 6, Node: 1, Kind: sim.EvBcast, MsgID: m2},
		{Round: 9, Node: 1, Kind: sim.EvAck, MsgID: m2},
	}
	for _, ev := range events {
		tr.Record(ev)
	}
	tr.Transmissions, tr.Deliveries, tr.Collisions = 10, 4, 1

	neigh := func(src int) []int32 { return []int32{2} }
	row := Summarize(tr, 20, neigh)

	if row.Acks != 2 {
		t.Errorf("acks = %d, want 2", row.Acks)
	}
	if row.Reliability != 0.5 {
		t.Errorf("reliability = %v, want 0.5 (one of two acked broadcasts reached node 2)", row.Reliability)
	}
	if row.AckP50 != 3.5 || row.AckMax != 4 {
		t.Errorf("ack p50/max = %v/%d, want 3.5/4", row.AckP50, row.AckMax)
	}
	if row.FirstRecvP50 != 2 {
		t.Errorf("first-recv p50 = %v, want 2", row.FirstRecvP50)
	}
	if row.MsgsPerAck != 5 {
		t.Errorf("msgs/ack = %v, want 5", row.MsgsPerAck)
	}
	if row.DeliveriesPerRound != 0.2 {
		t.Errorf("deliveries/round = %v, want 0.2", row.DeliveriesPerRound)
	}
	if row.CollisionRate != 0.2 {
		t.Errorf("collision rate = %v, want 0.2", row.CollisionRate)
	}
}

func TestIsNeighbor(t *testing.T) {
	neigh := []int32{2, 5, 9}
	for _, v := range neigh {
		if !isNeighbor(neigh, v) {
			t.Errorf("member %d not found", v)
		}
	}
	for _, v := range []int32{0, 3, 10} {
		if isNeighbor(neigh, v) {
			t.Errorf("non-member %d found", v)
		}
	}
	if isNeighbor(nil, 1) {
		t.Error("empty list matched")
	}
}

// TestRegistryBuiltins pins the builtin registration order — the column
// order of every comparison matrix.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{"lbalg", "contention-uniform", "contention-cycling", "decay", "sinr-local", "sinr-pernode"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("registered %v, want at least the builtins %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("registration order %v, want prefix %v", got, want)
		}
	}
	for _, p := range All() {
		if p.Description == "" || p.Model == "" {
			t.Errorf("policy %q missing description or model", p.Name)
		}
	}
}

// TestRegisterDuplicatePanics pins the registry's collision behaviour.
func TestRegisterDuplicatePanics(t *testing.T) {
	check := func(name string, p Policy) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		Register(p)
	}
	check("duplicate", Policy{Name: "lbalg", Instantiate: func(*Topology) (*Instance, error) { return nil, nil }})
	check("empty name", Policy{Instantiate: func(*Topology) (*Instance, error) { return nil, nil }})
	check("nil factory", Policy{Name: "no-factory"})
}

// TestSelect covers selection order, unknown names and the empty selection.
func TestSelect(t *testing.T) {
	ps, err := Select([]string{"decay", "lbalg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Name != "decay" || ps[1].Name != "lbalg" {
		t.Fatalf("Select order not preserved: %v", ps)
	}
	if _, err := Select([]string{"bogus"}); err == nil || !strings.Contains(err.Error(), "lbalg") {
		t.Fatalf("unknown-name error %v does not list the registered set", err)
	}
	if _, err := Select(nil); err == nil {
		t.Fatal("empty selection did not error")
	}
}

// TestEngineSeedStride pins the seed derivation the fingerprint tests rely
// on: a pure function of (seed, selection index) with the historical
// stride.
func TestEngineSeedStride(t *testing.T) {
	if EngineSeed(7, 0) != 7 {
		t.Errorf("EngineSeed(7, 0) = %d", EngineSeed(7, 0))
	}
	if EngineSeed(7, 3) != 7+3*1_000_003 {
		t.Errorf("EngineSeed(7, 3) = %d", EngineSeed(7, 3))
	}
}

// TestTopologyClone checks that clones are structurally identical to the
// reference and private (patching a clone leaves the reference intact).
func TestTopologyClone(t *testing.T) {
	top, err := NewSweepTopology(64, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := top.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if c == top.Dual {
		t.Fatal("Clone returned the reference instance")
	}
	if c.N() != top.Dual.N() || c.Delta() != top.Delta || c.DeltaPrime() != top.DeltaPrime {
		t.Fatalf("clone differs structurally: n=%d Δ=%d Δ′=%d vs n=%d Δ=%d Δ′=%d",
			c.N(), c.Delta(), c.DeltaPrime(), top.Dual.N(), top.Delta, top.DeltaPrime)
	}
	for u := 0; u < c.N(); u++ {
		a, b := top.Dual.G.Neighbors(u), c.G.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d: reliable degree %d vs %d", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: neighbor %d differs", u, i)
			}
		}
	}
}

// TestLBAlgServiceFootprint pins the lbalg policy's bytes per NewService
// call: every service of an Instance shares one phase plan, so a service
// costs its own state only, whatever the plan's phase length. A private
// plan per service cost about 10 KB per node on these topologies.
func TestLBAlgServiceFootprint(t *testing.T) {
	const calls = 1000
	pol, ok := Get("lbalg")
	if !ok {
		t.Fatal("lbalg policy not registered")
	}
	perCall := func(n int) (float64, int) {
		top, err := NewSweepTopology(n, 1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := pol.Instantiate(top)
		if err != nil {
			t.Fatal(err)
		}
		svcs := make([]core.Service, calls)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range svcs {
			svcs[i] = inst.NewService(i % n)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(svcs)
		// The policy derives its schedule from the topology the same way.
		p, err := core.DeriveParams(top.Delta, top.DeltaPrime, top.Dual.R, top.Eps)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / calls, p.PhaseLen()
	}
	small, smallLen := perCall(48)
	large, largeLen := perCall(128)
	if smallLen == largeLen {
		t.Fatalf("both topologies have phase length %d; the comparison is vacuous", smallLen)
	}
	if math.Abs(small-large) >= 1 {
		t.Errorf("NewService allocates %.1f B at phase length %d but %.1f B at %d; it must not depend on the phase length",
			small, smallLen, large, largeLen)
	}
	for _, b := range []float64{small, large} {
		if b >= 1024 {
			t.Errorf("NewService allocates %.1f B per call, want < 1 KB", b)
		}
	}
	t.Logf("%.1f B per NewService at phase length %d, %.1f B at %d", small, smallLen, large, largeLen)
}
