package core

import (
	"math"
	"testing"
)

func TestDeriveParamsValidation(t *testing.T) {
	tests := []struct {
		name              string
		delta, deltaPrime int
		r, eps            float64
		wantErr           bool
	}{
		{"valid", 8, 16, 1, 0.1, false},
		{"eps at half", 8, 16, 1, 0.5, false},
		{"eps above half", 8, 16, 1, 0.6, true},
		{"eps zero", 8, 16, 1, 0, true},
		{"delta zero", 0, 16, 1, 0.1, true},
		{"deltaPrime below delta", 8, 4, 1, 0.1, true},
		{"r below one", 8, 16, 0.5, 0.1, true},
		{"degenerate singleton", 1, 1, 1, 0.25, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DeriveParams(tt.delta, tt.deltaPrime, tt.r, tt.eps)
			if (err != nil) != tt.wantErr {
				t.Errorf("DeriveParams error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeriveParamsRejectsBadOverrides(t *testing.T) {
	for _, opt := range []Option{WithC1(0), WithCAck(-1), WithSeedEveryKPhases(0)} {
		if _, err := DeriveParams(8, 16, 1, 0.1, opt); err == nil {
			t.Error("bad override accepted")
		}
	}
}

func TestDerivedStructure(t *testing.T) {
	p, err := DeriveParams(16, 32, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eps2 != 0.05 {
		t.Errorf("Eps2 = %v, want ε₁/2", p.Eps2)
	}
	if p.LogDelta != 4 {
		t.Errorf("LogDelta = %d, want 4", p.LogDelta)
	}
	if p.Ts != p.SeedParams.Rounds() {
		t.Errorf("Ts = %d ≠ SeedAlg rounds %d", p.Ts, p.SeedParams.Rounds())
	}
	if p.PhaseLen() != p.Ts+p.Tprog {
		t.Error("PhaseLen ≠ Ts+Tprog")
	}
	if p.TProgBound() != p.PhaseLen() {
		t.Error("TProgBound ≠ PhaseLen")
	}
	if p.TAckBound() != (p.Tack+1)*p.PhaseLen() {
		t.Error("TAckBound ≠ (Tack+1)·PhaseLen")
	}
	// κ must cover the worst-case per-phase consumption.
	if p.Kappa < p.Tprog*(p.K1+p.K2) {
		t.Errorf("κ = %d below Tprog·(K1+K2) = %d", p.Kappa, p.Tprog*(p.K1+p.K2))
	}
	if p.SeedParams.Kappa != p.Kappa {
		t.Error("seed params carry a different κ")
	}
	// Participant probability is a/(r²·log(1/ε₂)) with a ∈ (½, 1].
	target := 1 / (p.R * p.R * math.Log2(1/p.Eps2))
	if pp := math.Pow(2, -float64(p.K1)); pp > target || pp <= target/2 {
		t.Errorf("participant probability 2^-K1 = %v, want in (%v, %v]", pp, target/2, target)
	}
	// K2 must index [log Δ].
	if 1<<p.K2 < p.LogDelta {
		t.Errorf("2^K2 = %d < log Δ = %d", 1<<p.K2, p.LogDelta)
	}
}

func TestEps2Clamped(t *testing.T) {
	// ε₁ = 0.5 ⇒ ε₂ = 0.25 exactly at SeedAlg's ceiling.
	p, err := DeriveParams(4, 4, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Eps2 != 0.25 {
		t.Errorf("Eps2 = %v", p.Eps2)
	}
}

func TestTprogScalesWithTheorem(t *testing.T) {
	// t_prog = O(r²·log Δ·log(stuff)): doubling Δ must increase Tprog by
	// exactly the logΔ step; growing r must scale ~r².
	base, err := DeriveParams(16, 16, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	deeper, err := DeriveParams(256, 256, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(deeper.Tprog)/float64(base.Tprog), 2.0; math.Abs(got-want) > 0.05 {
		t.Errorf("Tprog ratio for logΔ 4→8 = %v, want ≈2", got)
	}
	wide, err := DeriveParams(16, 16, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(wide.Tprog) / float64(base.Tprog); math.Abs(got-4) > 0.1 {
		t.Errorf("Tprog ratio for r 1→2 = %v, want ≈4", got)
	}
}

func TestTackScalesWithDeltaPrime(t *testing.T) {
	// t_ack = O(Δ′·log(Δ/ε)): doubling Δ′ roughly doubles Tack.
	a, err := DeriveParams(16, 16, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveParams(16, 64, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(b.Tack) / float64(a.Tack); math.Abs(got-4) > 0.3 {
		t.Errorf("Tack ratio for Δ′ 16→64 = %v, want ≈4", got)
	}
}

func TestPhaseOf(t *testing.T) {
	p, err := DeriveParams(4, 4, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pl := p.PhaseLen()
	tests := []struct {
		t         int
		wantPhase int
		wantPos   int
	}{
		{1, 1, 0},
		{pl, 1, pl - 1},
		{pl + 1, 2, 0},
		{2*pl + 5, 3, 4},
	}
	plan := NewPhasePlan(p)
	for _, tt := range tests {
		phase, pos := plan.PhaseOf(tt.t)
		if phase != tt.wantPhase || pos != tt.wantPos {
			t.Errorf("PhaseOf(%d) = %d,%d want %d,%d", tt.t, phase, pos, tt.wantPhase, tt.wantPos)
		}
	}
}

func TestKappaCoversAblationCycles(t *testing.T) {
	p, err := DeriveParams(8, 8, 1, 0.1, WithSeedEveryKPhases(4))
	if err != nil {
		t.Fatal(err)
	}
	perRound := p.K1 + p.K2
	cycleBodyRounds := p.Tprog + 3*(p.Ts+p.Tprog)
	if p.Kappa < cycleBodyRounds*perRound {
		t.Errorf("κ = %d cannot cover a 4-phase cycle needing %d bits",
			p.Kappa, cycleBodyRounds*perRound)
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
	}
	for _, tt := range tests {
		if got := bitsFor(tt.n); got != tt.want {
			t.Errorf("bitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestStateString(t *testing.T) {
	for _, s := range []State{StateReceiving, StateSending, State(9)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}

func TestNoGlobalParameterDependence(t *testing.T) {
	// True locality: derivation depends only on (Δ, Δ′, r, ε). Two networks
	// with equal local bounds but wildly different sizes must get identical
	// schedules. (The function signature enforces this; the test documents
	// and pins it.)
	a, err := DeriveParams(32, 64, 1.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveParams(32, 64, 1.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical local inputs produced different schedules")
	}
}
