package seedagree

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"lbcast/internal/xrand"
)

// Status returns the node's current status.
func (a *Alg) Status() Status { return a.m.status }

func validParams(t testing.TB) Params {
	t.Helper()
	p, err := NewParams(0.1, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewParamsValidation(t *testing.T) {
	tests := []struct {
		name    string
		eps     float64
		kappa   int
		delta   int
		wantErr bool
	}{
		{"valid", 0.1, 64, 8, false},
		{"eps at quarter", 0.25, 64, 8, false},
		{"eps above quarter", 0.3, 64, 8, true},
		{"eps zero", 0, 64, 8, true},
		{"eps negative", -0.1, 64, 8, true},
		{"kappa zero", 0.1, 0, 8, true},
		{"delta zero", 0.1, 64, 0, true},
		{"delta one ok", 0.1, 64, 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewParams(tt.eps, tt.kappa, tt.delta)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewParams(%v,%d,%d) error = %v, wantErr %v",
					tt.eps, tt.kappa, tt.delta, err, tt.wantErr)
			}
		})
	}
	bad := Params{Eps1: 0.1, Kappa: 1, Delta: 1, C4: 0}
	if bad.Validate() == nil {
		t.Error("C4=0 validated")
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10},
	}
	for _, tt := range tests {
		if got := Log2Ceil(tt.n); got != tt.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestParamsDerivation(t *testing.T) {
	p := validParams(t) // eps 0.1, delta 16
	if got := p.Phases(); got != 4 {
		t.Errorf("Phases = %d, want 4", got)
	}
	// PhaseLen = ceil(4 · log2(10)²) = ceil(4·11.03...) = 45.
	wantLen := int(math.Ceil(4 * math.Log2(10) * math.Log2(10)))
	if got := p.PhaseLen(); got != wantLen {
		t.Errorf("PhaseLen = %d, want %d", got, wantLen)
	}
	if p.Rounds() != p.Phases()*p.PhaseLen() {
		t.Error("Rounds ≠ Phases × PhaseLen")
	}
}

func TestLeaderProbSchedule(t *testing.T) {
	p := validParams(t) // logΔ = 4
	want := []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2}
	for h := 1; h <= 4; h++ {
		if got := p.leaderProb(h); math.Abs(got-want[h-1]) > 1e-15 {
			t.Errorf("leaderProb(%d) = %v, want %v", h, got, want[h-1])
		}
	}
}

func TestBroadcastProb(t *testing.T) {
	p := validParams(t)
	want := 1 / math.Log2(10)
	if got := p.broadcastProb(); math.Abs(got-want) > 1e-15 {
		t.Errorf("broadcastProb = %v, want %v", got, want)
	}
	// For ε₁ ≤ ¼ the probability is at most ½.
	quarter := Params{Eps1: 0.25, Kappa: 1, Delta: 2, C4: 1}
	if quarter.broadcastProb() > 0.5 {
		t.Error("broadcastProb exceeds ½ at ε₁ = ¼")
	}
}

func TestRoundsMatchTheorem(t *testing.T) {
	// Theorem 3.1: O(log Δ · log²(1/ε₁)) rounds. Verify exact structure:
	// doubling Δ adds exactly one phase.
	for _, eps := range []float64{0.25, 0.1, 0.01} {
		var prev int
		for _, delta := range []int{2, 4, 8, 16, 32, 64} {
			p := Params{Eps1: eps, Kappa: 8, Delta: delta, C4: DefaultC4}
			r := p.Rounds()
			if prev != 0 && r-prev != p.PhaseLen() {
				t.Errorf("eps=%v Δ=%d: rounds %d → %d, want step of one phase (%d)",
					eps, delta, prev, r, p.PhaseLen())
			}
			prev = r
		}
	}
}

func TestAlgInitialState(t *testing.T) {
	p := validParams(t)
	a := NewAlgWithPlan(NewPlan(p), 3, xrand.New(1))
	if a.Status() != StatusActive {
		t.Errorf("initial status = %v", a.Status())
	}
	if a.Decided() {
		t.Error("decided before running")
	}
	if a.InitialSeed().Len() != p.Kappa {
		t.Errorf("seed length = %d, want %d", a.InitialSeed().Len(), p.Kappa)
	}
}

func TestAlgReset(t *testing.T) {
	p := validParams(t)
	a := NewAlgWithPlan(NewPlan(p), 3, xrand.New(2))
	s1 := a.InitialSeed()
	// Run to completion in isolation: node decides (possibly by default).
	for local := 1; local <= p.Rounds(); local++ {
		a.Transmit(local)
		a.Receive(local, nil, false)
	}
	if !a.Decided() {
		t.Fatal("undecided after full run")
	}
	a.Reset()
	if a.Decided() || a.Status() != StatusActive {
		t.Error("Reset did not clear state")
	}
	if s1 == a.InitialSeed() {
		t.Error("Reset did not redraw the seed")
	}
}

func TestAlgIsolatedDecidesOwnSeed(t *testing.T) {
	// A node that never hears anything decides its own seed: either it
	// elects itself leader at some phase, or it defaults at the end.
	p := validParams(t)
	for trial := 0; trial < 50; trial++ {
		a := NewAlgWithPlan(NewPlan(p), 7, xrand.New(uint64(trial)))
		for local := 1; local <= p.Rounds(); local++ {
			a.Transmit(local)
			a.Receive(local, nil, false)
		}
		if !a.Decided() {
			t.Fatal("isolated node undecided")
		}
		d := a.Decision()
		if d.Owner != 7 {
			t.Fatalf("isolated node committed to foreign owner %d", d.Owner)
		}
		if d.Seed != a.InitialSeed() {
			t.Fatal("isolated node committed a seed other than its own")
		}
	}
}

func TestAlgCommitsToHeardLeader(t *testing.T) {
	p := validParams(t)
	// Force no self-election by seeding so first election coins miss:
	// instead, inject a message in round 2 and verify commitment.
	a := NewAlgWithPlan(NewPlan(p), 1, xrand.New(3))
	if _, tx := a.Transmit(1); tx {
		t.Skip("node elected itself leader in phase 1 (probability 1/Δ); reseed")
	}
	leaderSeed := xrand.New(99).DrawSeed(p.Kappa)
	frame := &Msg{Owner: 42, Seed: leaderSeed}
	a.Receive(1, frame, true)
	if !a.Decided() {
		t.Fatal("node did not commit on hearing a leader")
	}
	// The leader's next Reset redraws its frame in place; the decision
	// holds the value it heard.
	frame.Seed = xrand.New(100).DrawSeed(p.Kappa)
	d := a.Decision()
	if d.Owner != 42 || d.Seed != leaderSeed || d.Default {
		t.Fatalf("decision = %+v", d)
	}
	if a.Status() != StatusInactive {
		t.Errorf("status after commit = %v", a.Status())
	}
	// Later messages must not change the decision (well-formedness).
	a.Receive(2, &Msg{Owner: 13, Seed: leaderSeed}, true)
	if a.Decision().Owner != 42 {
		t.Error("second message overwrote the decision")
	}
}

func TestAlgLeaderAdvertises(t *testing.T) {
	// A leader must broadcast (i, s) with its own id during its phase.
	p := Params{Eps1: 0.25, Kappa: 16, Delta: 2, C4: 8}
	// Δ=2: one phase with election probability ½; find a seed electing
	// itself at phase 1.
	for s := uint64(0); s < 100; s++ {
		a := NewAlgWithPlan(NewPlan(p), 5, xrand.New(s))
		payload, tx := a.Transmit(1)
		if a.Status() != StatusLeader {
			continue
		}
		// Leader found. It decided its own seed immediately.
		if !a.Decided() || a.Decision().Owner != 5 {
			t.Fatal("leader did not decide its own seed")
		}
		// Over the remaining rounds it must transmit at least once with
		// overwhelming probability (p = ½ per round).
		sent := tx
		for local := 2; local <= p.Rounds(); local++ {
			payload, tx = a.Transmit(local)
			if tx {
				sent = true
				msg, ok := payload.(*Msg)
				if !ok || msg.Owner != 5 {
					t.Fatalf("leader payload = %#v", payload)
				}
				if msg.Seed != a.InitialSeed() {
					t.Fatal("leader advertised a foreign seed")
				}
			}
			a.Receive(local, nil, false)
		}
		if !sent {
			t.Error("leader never advertised in its phase")
		}
		return
	}
	t.Fatal("no seed produced a phase-1 leader in 100 tries at p=½")
}

func TestAlgIgnoresForeignPayloads(t *testing.T) {
	p := validParams(t)
	a := NewAlgWithPlan(NewPlan(p), 1, xrand.New(4))
	if _, tx := a.Transmit(1); tx {
		t.Skip("self-elected; reseed")
	}
	a.Receive(1, "not a seed message", true)
	if a.Decided() {
		t.Fatal("node committed on a non-seed payload")
	}
}

func TestAlgOutOfRangeRounds(t *testing.T) {
	p := validParams(t)
	a := NewAlgWithPlan(NewPlan(p), 1, xrand.New(5))
	if _, tx := a.Transmit(0); tx {
		t.Error("transmitted at round 0")
	}
	if _, tx := a.Transmit(p.Rounds() + 1); tx {
		t.Error("transmitted after completion")
	}
}

func TestAlgFinalizeIdempotent(t *testing.T) {
	p := validParams(t)
	a := NewAlgWithPlan(NewPlan(p), 9, xrand.New(6))
	a.Finalize()
	d1 := a.Decision()
	a.Finalize()
	if a.Decision() != d1 {
		t.Error("Finalize changed the decision")
	}
	if !d1.Default || d1.Owner != 9 {
		t.Errorf("default decision = %+v", d1)
	}
}

func TestLeaderElectionProbabilityEmpirical(t *testing.T) {
	// Phase-1 election probability must be 1/Δ (rounded to power of two).
	p := Params{Eps1: 0.1, Kappa: 8, Delta: 16, C4: 1}
	const trials = 20000
	elected := 0
	for i := 0; i < trials; i++ {
		a := NewAlgWithPlan(NewPlan(p), 0, xrand.New(uint64(i)))
		a.Transmit(1)
		if a.Status() == StatusLeader {
			elected++
		}
	}
	got := float64(elected) / trials
	if math.Abs(got-1.0/16) > 0.01 {
		t.Errorf("phase-1 election rate = %v, want 1/16", got)
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusActive, StatusLeader, StatusInactive, Status(77)} {
		if s.String() == "" {
			t.Errorf("empty string for status %d", int(s))
		}
	}
}

// TestPlanMatchesFormulas pins the precomputed schedule tables to the
// Params formulas they cache.
func TestPlanMatchesFormulas(t *testing.T) {
	for _, delta := range []int{1, 2, 3, 8, 100} {
		p, err := NewParams(0.2, 16, delta)
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlan(p)
		if pl.rounds != p.Rounds() || pl.PhaseLen() != p.PhaseLen() {
			t.Fatalf("Δ=%d: plan rounds/phaseLen %d/%d, want %d/%d",
				delta, pl.rounds, pl.PhaseLen(), p.Rounds(), p.PhaseLen())
		}
		for local := 1; local <= p.Rounds(); local++ {
			phase, pos := int(pl.pp[local]>>16), int(pl.pp[local]&0xffff)
			if want := (local-1)/p.PhaseLen() + 1; phase != want {
				t.Fatalf("Δ=%d local %d: phase %d, want %d", delta, local, phase, want)
			}
			if want := (local - 1) % p.PhaseLen(); pos != want {
				t.Fatalf("Δ=%d local %d: pos %d, want %d", delta, local, pos, want)
			}
		}
		for h := 1; h <= p.Phases(); h++ {
			if pl.leaderProb[h] != p.leaderProb(h) {
				t.Fatalf("Δ=%d phase %d: leaderProb %v, want %v", delta, h, pl.leaderProb[h], p.leaderProb(h))
			}
		}
	}
}

// TestAlgWithSharedPlanEquivalent: an Alg over a shared plan behaves
// identically to one that derived its own.
func TestAlgWithSharedPlanEquivalent(t *testing.T) {
	p, err := NewParams(0.25, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(p)
	a := NewAlgWithPlan(NewPlan(p), 1, xrand.New(42))
	b := NewAlgWithPlan(plan, 1, xrand.New(42))
	for local := 1; local <= p.Rounds(); local++ {
		pa, ta := a.Transmit(local)
		pb, tb := b.Transmit(local)
		if ta != tb {
			t.Fatalf("round %d: transmit %v vs %v", local, ta, tb)
		}
		if ta {
			if *pa.(*Msg) != *pb.(*Msg) {
				t.Fatalf("round %d: payloads diverged", local)
			}
		}
		a.Receive(local, nil, false)
		b.Receive(local, nil, false)
		if a.Status() != b.Status() || a.Decided() != b.Decided() || a.Idle() != b.Idle() {
			t.Fatalf("round %d: state diverged (%v/%v vs %v/%v)", local, a.Status(), a.Decided(), b.Status(), b.Decided())
		}
	}
	da, db := a.Decision(), b.Decision()
	if da.Owner != db.Owner || da.Default != db.Default || da.Seed != db.Seed {
		t.Fatalf("decisions diverged: %+v vs %+v", da, db)
	}
}

// TestAlgSize pins the per-node machine that LBAlg and the E-SEED processes
// still allocate: a Machine, the plan and stream pointers, the Msg and the
// decision record. Alg kept its own Params copy, a decided flag that
// equals status ≠ Active, and word-wide status and leader phase at 208 B.
func TestAlgSize(t *testing.T) {
	if size := unsafe.Sizeof(Alg{}); size > 160 {
		t.Errorf("seedagree.Alg is %d B, want ≤ 160", size)
	}
}

// TestMachineRowsLockstep runs SeedAlg twice over identical executions:
// once as per-node Alg machines, once as column rows — a Machine, a Msg and
// a stream value per node in slices, stepped through the Machine methods
// as core.NodeStateBank steps them, with the decided seed copied into a
// column at each decision. Both sides draw from equal streams and hear
// equal receptions: each listener hears one transmitter of the round (its
// own side's frame), a foreign payload or nothing, and every sixth node
// never hears a leader, so it decides by default. After every transmit
// and every receive it compares each node's status, decision seed, initial
// seed and stream state, and every transmission's payload by value. Runs
// repeat from Reset, so leaders redraw the Msg a decided node heard, and
// the execution must reach elections, commits on hearing and defaults.
func TestMachineRowsLockstep(t *testing.T) {
	for _, tc := range []struct {
		eps          float64
		kappa, delta int
	}{
		{0.25, 64, 8},
		{0.1, 300, 16},
	} {
		t.Run(fmt.Sprintf("eps=%v/delta=%d", tc.eps, tc.delta), func(t *testing.T) {
			const n, runs = 23, 4
			p, err := NewParams(tc.eps, tc.kappa, tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			plan := NewPlan(p)
			algs := make([]*Alg, n)
			algRngs := make([]*xrand.Source, n)
			rows := make([]Machine, n)
			msgs := make([]Msg, n)
			rngs := make([]xrand.Source, n)
			decided := make([]xrand.Seed, n)
			for u := range n {
				algRngs[u] = xrand.NodeSource(5, u)
				algs[u] = NewAlgWithPlan(plan, u, algRngs[u])
				rngs[u] = *xrand.NodeSource(5, u)
				msgs[u].Owner = u
				rows[u].Reset(plan, &msgs[u], &rngs[u])
			}
			compare := func(run, local int, phase string) {
				t.Helper()
				for u := range n {
					a := algs[u]
					if got, want := rows[u].Status(), a.Status(); got != want {
						t.Fatalf("run %d round %d %s node %d: row status %v, Alg %v", run, local, phase, u, got, want)
					}
					if a.Decided() && decided[u] != a.Decision().Seed {
						t.Fatalf("run %d round %d %s node %d: row decided %v, Alg %v", run, local, phase, u, decided[u], a.Decision().Seed)
					}
					if msgs[u].Seed != a.InitialSeed() {
						t.Fatalf("run %d round %d %s node %d: initial seeds diverged", run, local, phase, u)
					}
					if rngs[u] != *algRngs[u] {
						t.Fatalf("run %d round %d %s node %d: streams diverged", run, local, phase, u)
					}
				}
			}
			channel := xrand.New(9)
			var elected, heard, defaults int
			algFrames, rowFrames := make([]any, n), make([]any, n)
			var txs []int
			for run := range runs {
				if run > 0 {
					for u := range n {
						algs[u].Reset()
						rows[u].Reset(plan, &msgs[u], &rngs[u])
					}
				}
				compare(run, 0, "reset")
				for local := 1; local <= p.Rounds(); local++ {
					txs = txs[:0]
					for u := range n {
						algFrames[u], rowFrames[u] = nil, nil
						wasActive := rows[u].Status() == StatusActive
						payload, tx := algs[u].Transmit(local)
						won, advertise := rows[u].Transmit(plan, &rngs[u], local)
						if won {
							decided[u] = msgs[u].Seed
							elected++
						}
						if won != (wasActive && algs[u].Status() == StatusLeader) {
							t.Fatalf("run %d round %d node %d: row elected %v, Alg status %v", run, local, u, won, algs[u].Status())
						}
						if tx != advertise {
							t.Fatalf("run %d round %d node %d: Alg transmits %v, row %v", run, local, u, tx, advertise)
						}
						if tx {
							if *payload.(*Msg) != msgs[u] {
								t.Fatalf("run %d round %d node %d: payload %+v, row %+v", run, local, u, payload, msgs[u])
							}
							algFrames[u], rowFrames[u] = payload, &msgs[u]
							txs = append(txs, u)
						}
					}
					compare(run, local, "transmit")
					for u := range n {
						var algIn, rowIn any
						ok := false
						switch {
						case algFrames[u] != nil || channel.Coin(0.3):
						case len(txs) > 0 && u%6 != 5 && channel.Coin(0.8): // every 6th node hears no leader
							from := txs[channel.Intn(len(txs))]
							algIn, rowIn, ok = algFrames[from], rowFrames[from], true
						default:
							algIn, rowIn, ok = "not a seed message", "not a seed message", true
						}
						algs[u].Receive(local, algIn, ok)
						if msg := rows[u].Receive(plan, local, rowIn, ok); msg != nil {
							decided[u] = msg.Seed
							heard++
						}
						if local == p.Rounds() && rows[u].Finalize() {
							decided[u] = msgs[u].Seed
							defaults++
						}
					}
					compare(run, local, "receive")
				}
			}
			if elected == 0 || heard == 0 || defaults == 0 {
				t.Errorf("%d elections, %d commits on hearing, %d defaults: want each > 0", elected, heard, defaults)
			}
			t.Logf("%d elections, %d commits on hearing, %d defaults over %d runs", elected, heard, defaults, runs)
		})
	}
}
