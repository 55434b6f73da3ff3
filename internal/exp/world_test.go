package exp

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"lbcast/internal/sim"
	"lbcast/internal/workload"
	"lbcast/internal/world"
)

// fingerprintJSON is the fingerprint the golden tables below were captured
// with: FNV-1a 64 over the canonical json.Marshal bytes.
func fingerprintJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWorldFingerprints pins every E-COMPARE, E-CHURN and E-LOAD row at
// (SizeSmall, seed 1) to the fingerprints captured from the pre-World
// bespoke experiment loops. This is the refactor's acceptance gate: the
// registry + World harness must reproduce the old matrices byte for byte
// (row JSON, hence every metric bit), per row and in aggregate.
func TestWorldFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-size matrices")
	}

	comp, err := RunComparison(SizeSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantComp := map[string]string{
		"n=48 lbalg":               "1866535e93eb785c",
		"n=48 contention-uniform":  "46fc478d0ec94def",
		"n=48 contention-cycling":  "df68a70066ea241f",
		"n=48 decay":               "30e95de06123a403",
		"n=48 sinr-local":          "4329212fef9051a7",
		"n=48 sinr-pernode":        "580bcd3418ebed91",
		"n=128 lbalg":              "1f07448580065104",
		"n=128 contention-uniform": "1b242d79265d0ceb",
		"n=128 contention-cycling": "3249fb148e8c179e",
		"n=128 decay":              "ab65919e11a4cf1f",
		"n=128 sinr-local":         "ff584b11822a48d2",
		"n=128 sinr-pernode":       "9063ba604be88f1e",
	}
	if len(comp.Rows) != len(wantComp) {
		t.Fatalf("E-COMPARE: %d rows, want %d", len(comp.Rows), len(wantComp))
	}
	for _, r := range comp.Rows {
		key := fmt.Sprintf("n=%d %s", r.N, r.Algorithm)
		if got := fingerprintJSON(t, r); got != wantComp[key] {
			t.Errorf("E-COMPARE %s: fingerprint %s, want %s", key, got, wantComp[key])
		}
	}
	if got, want := fingerprintJSON(t, comp.Rows), "a424028f96be84d6"; got != want {
		t.Errorf("E-COMPARE aggregate fingerprint %s, want %s", got, want)
	}

	ch, err := RunChurn(SizeSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantChurn := map[string]string{
		"load=0 lbalg":                 "6c7aee880352f60d",
		"load=0 contention-uniform":    "8b00721d11a3f285",
		"load=0 decay":                 "ec26c607fd316673",
		"load=0.25 lbalg":              "79de304b0dfba597",
		"load=0.25 contention-uniform": "c3988dbcc11b6b89",
		"load=0.25 decay":              "a4e18b4ec76c1a22",
		"load=1 lbalg":                 "b61d7cfd49a880c1",
		"load=1 contention-uniform":    "7bf40ae68b79174a",
		"load=1 decay":                 "265a43c3a6914915",
		"load=4 lbalg":                 "4fac2c7183a87011",
		"load=4 contention-uniform":    "1a8041393717fb0a",
		"load=4 decay":                 "62917f8166ed4363",
	}
	if len(ch.Rows) != len(wantChurn) {
		t.Fatalf("E-CHURN: %d rows, want %d", len(ch.Rows), len(wantChurn))
	}
	for _, r := range ch.Rows {
		key := fmt.Sprintf("load=%v %s", r.Load, r.Algorithm)
		if got := fingerprintJSON(t, r); got != wantChurn[key] {
			t.Errorf("E-CHURN %s: fingerprint %s, want %s", key, got, wantChurn[key])
		}
	}
	if got, want := fingerprintJSON(t, ch.Rows), "5afa88df5fbdadf6"; got != want {
		t.Errorf("E-CHURN aggregate fingerprint %s, want %s", got, want)
	}

	ld, err := RunLoad(SizeSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantLoad := map[string]string{
		"load=0.25 lbalg":              "e2b8abde0d5fffec",
		"load=0.25 contention-uniform": "8da684841a5af99d",
		"load=0.25 decay":              "3bcd7e304fc67947",
		"load=0.5 lbalg":               "a7a8875b1cac9eb4",
		"load=0.5 contention-uniform":  "6510974f53ddee4c",
		"load=0.5 decay":               "f94d17dbe9d1f5e2",
		"load=1 lbalg":                 "2681d8b1fd73f550",
		"load=1 contention-uniform":    "e34bc24e739abe09",
		"load=1 decay":                 "d8ea8604ae7eed1a",
		"load=2 lbalg":                 "72cb79936358d1cc",
		"load=2 contention-uniform":    "7374e335d045b96c",
		"load=2 decay":                 "ccabbaea8fe1909b",
		"load=4 lbalg":                 "465b03bc011aedb0",
		"load=4 contention-uniform":    "6744dac7fca3270b",
		"load=4 decay":                 "09cd13aebe75d92b",
	}
	if len(ld.Rows) != len(wantLoad) {
		t.Fatalf("E-LOAD: %d rows, want %d", len(ld.Rows), len(wantLoad))
	}
	for _, r := range ld.Rows {
		key := fmt.Sprintf("load=%v %s", r.Load, r.Algorithm)
		if got := fingerprintJSON(t, r); got != wantLoad[key] {
			t.Errorf("E-LOAD %s: fingerprint %s, want %s", key, got, wantLoad[key])
		}
	}
	if got, want := fingerprintJSON(t, ld.Rows), "f20e0a9076cfefac"; got != want {
		t.Errorf("E-LOAD rows aggregate fingerprint %s, want %s", got, want)
	}
	if got, want := fingerprintJSON(t, ld.Scenarios), "c91ebccaec0950f1"; got != want {
		t.Errorf("E-LOAD scenarios aggregate fingerprint %s, want %s", got, want)
	}
}

// TestWorldConcurrentIdentity checks the World harness's scheduling
// independence: the same comparison point run with one worker and with
// several produces byte-identical rows. Runs under -race in the multicore
// CI job, which also makes it the cross-policy shared-state check (any
// mutable state shared between concurrently running policy engines is a
// reported race).
func TestWorldConcurrentIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a comparison point twice")
	}
	policies, err := world.Select(world.Names())
	if err != nil {
		t.Fatal(err)
	}
	churnPolicies, err := world.Select(churnDefaultPolicies)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		rows, err := runComparisonPoint(32, 11, 0.2, 600, policies, workers)
		if err != nil {
			t.Fatal(err)
		}
		crows, err := runChurnPoint(32, 11, 1, 0.2, 600, churnPolicies, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Comparison []ComparisonRow
			Churn      []ChurnRow
		}{rows, crows})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		if conc := run(workers); string(conc) != string(seq) {
			t.Fatalf("rows at workers=%d differ from sequential run", workers)
		}
	}
}

// TestLBAlgBankMatchesPerNode runs the lbalg policy in both representations
// through the experiments' own configuration hooks: the state bank
// (Instance.NewBank, what E-COMPARE and E-LOAD run) and per-node services
// (NewService, what E-CHURN runs). On the n = 48 E-COMPARE point over its
// full shared window, and on the load-1 E-LOAD point, the two engines must
// record the same events in the same order, with the same channel counters.
func TestLBAlgBankMatchesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs lbalg's full windows twice")
	}
	const seed = 1
	all, err := world.Select(world.Names())
	if err != nil {
		t.Fatal(err)
	}
	top, err := world.NewSweepTopology(48, seed, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(top, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Policies[0].Name != "lbalg" {
		t.Fatalf("policy 0 is %s, want lbalg", w.Policies[0].Name)
	}
	banked := w.Instances[0]
	if banked.NewBank == nil {
		t.Fatal("the lbalg policy has no bank constructor")
	}
	perNode := *banked
	perNode.NewBank = nil

	run := func(t *testing.T, rounds int, configure func(*world.Instance, *sim.Config)) []*sim.Trace {
		var traces []*sim.Trace
		for _, inst := range []*world.Instance{banked, &perNode} {
			cfg := sim.Config{Dual: top.Dual}
			configure(inst, &cfg)
			if (cfg.Bank != nil) != (inst == banked) {
				t.Fatalf("Config.Bank set = %v for the banked run = %v", cfg.Bank != nil, inst == banked)
			}
			e, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Run(rounds)
			traces = append(traces, e.Trace())
		}
		return traces
	}
	same := func(t *testing.T, bank, ref *sim.Trace) {
		t.Helper()
		if bank.Transmissions != ref.Transmissions || bank.Deliveries != ref.Deliveries ||
			bank.Collisions != ref.Collisions || bank.Len() != ref.Len() {
			t.Fatalf("bank {tx %d del %d col %d events %d}, per-node {tx %d del %d col %d events %d}",
				bank.Transmissions, bank.Deliveries, bank.Collisions, bank.Len(),
				ref.Transmissions, ref.Deliveries, ref.Collisions, ref.Len())
		}
		if len(ref.ByKind(sim.EvAck)) == 0 {
			t.Fatal("no broadcast acked; the comparison is vacuous")
		}
		for i := 0; i < ref.Len(); i++ {
			if bank.At(i) != ref.At(i) {
				t.Fatalf("event %d: bank %+v, per-node %+v", i, bank.At(i), ref.At(i))
			}
		}
	}

	t.Run("E-COMPARE", func(t *testing.T) {
		senders := len(w.Senders())
		tr := run(t, w.Window(150_000), func(inst *world.Instance, cfg *sim.Config) {
			configureComparisonRun(cfg, inst, 48, senders, seed, 0)
		})
		same(t, tr[0], tr[1])
		t.Logf("%d rounds, %d events, %d acks", tr[1].RoundsRun, tr[1].Len(), len(tr[1].ByKind(sim.EvAck)))
	})
	t.Run("E-LOAD", func(t *testing.T) {
		const load = 1.0
		plan, err := workload.Poisson(workload.PoissonConfig{
			N: 48, Rounds: loadRounds(banked.AckWindow, 400_000), Rate: load / float64(banked.AckWindow),
			Seed: seed ^ math.Float64bits(load),
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := run(t, plan.Rounds, func(inst *world.Instance, cfg *sim.Config) {
			var traffic *workload.Traffic
			if err := configureLoadRun(cfg, inst, world.EngineSeed(seed, 0), plan,
				loadQueueCap, workload.DropNewest, &traffic); err != nil {
				t.Fatal(err)
			}
		})
		same(t, tr[0], tr[1])
		t.Logf("%d rounds, %d events, %d acks", tr[1].RoundsRun, tr[1].Len(), len(tr[1].ByKind(sim.EvAck)))
	})
}
