package workload

import (
	"math"
	"reflect"
	"testing"
)

// --- Satellite: statistical property tests at fixed seeds. Every bound
// below is a ≥4σ confidence interval at its pinned seed, so the tests are
// deterministic in practice while still validating the distributions.

// TestPoissonInterarrivalMoments checks that per-node interarrival gaps are
// exponential with the configured mean: sample mean within 4σ of 1/rate and
// sample variance within 10% of 1/rate² (discretisation to integer rounds
// perturbs both by well under the tolerance at this rate).
func TestPoissonInterarrivalMoments(t *testing.T) {
	const (
		n      = 200
		rounds = 50_000
		rate   = 0.02
	)
	p, err := Poisson(PoissonConfig{N: n, Rounds: rounds, Rate: rate, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for _, times := range perNode(p) {
		for i := 1; i < len(times); i++ {
			gaps = append(gaps, float64(times[i]-times[i-1]))
		}
	}
	k := float64(len(gaps))
	if k < 100_000 {
		t.Fatalf("only %v gaps; expected ≈ %v", k, n*rounds*rate)
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / k
	var sq float64
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	variance := sq / (k - 1)

	wantMean := 1 / rate // 50
	if se := wantMean / math.Sqrt(k); math.Abs(mean-wantMean) > 4*se {
		t.Errorf("interarrival mean %.3f outside %v ± %.3f", mean, wantMean, 4*se)
	}
	wantVar := 1 / (rate * rate) // 2500
	if math.Abs(variance-wantVar) > 0.10*wantVar {
		t.Errorf("interarrival variance %.1f outside %v ± 10%%", variance, wantVar)
	}
}

// TestPoissonTotalCount checks the aggregate arrival count against the
// binomial-style CI for a Poisson total with mean N·Rounds·Rate.
func TestPoissonTotalCount(t *testing.T) {
	const (
		n      = 100
		rounds = 20_000
		rate   = 0.01
	)
	p, err := Poisson(PoissonConfig{N: n, Rounds: rounds, Rate: rate, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * float64(rounds) * rate
	sigma := math.Sqrt(want)
	if got := float64(len(p.Arrivals)); math.Abs(got-want) > 4*sigma {
		t.Errorf("total arrivals %v outside %v ± %v", got, want, 4*sigma)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
}

// TestMMPPRegimeRates classifies every round as quiet or burst using the
// returned epochs and checks the empirical per-node per-round arrival rate
// in each regime against its configured Bernoulli probability.
func TestMMPPRegimeRates(t *testing.T) {
	cfg := MMPPConfig{
		N: 100, Rounds: 40_000,
		QuietRate: 0.002, BurstRate: 0.05,
		MeanQuiet: 400, MeanBurst: 100,
		Seed: 99,
	}
	p, epochs, err := MMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("regime chain never entered a burst epoch")
	}
	inBurst := make([]bool, cfg.Rounds+1)
	burstRounds := 0
	for _, e := range epochs {
		if e.Start < 1 || e.End <= e.Start {
			t.Fatalf("malformed epoch %+v", e)
		}
		for r := e.Start; r < e.End && r <= cfg.Rounds; r++ {
			inBurst[r] = true
			burstRounds++
		}
	}
	quietRounds := cfg.Rounds - burstRounds
	if burstRounds == 0 || quietRounds == 0 {
		t.Fatalf("degenerate regime split: burst=%d quiet=%d", burstRounds, quietRounds)
	}
	// The regime chain itself: expected burst fraction is
	// MeanBurst/(MeanQuiet+MeanBurst) = 0.2; allow a wide band (epoch counts
	// are small).
	if frac := float64(burstRounds) / float64(cfg.Rounds); frac < 0.08 || frac > 0.40 {
		t.Errorf("burst round fraction %.3f implausible for means %d/%d",
			frac, cfg.MeanQuiet, cfg.MeanBurst)
	}
	var burstArr, quietArr int
	for _, a := range p.Arrivals {
		if inBurst[a.Round] {
			burstArr++
		} else {
			quietArr++
		}
	}
	check := func(name string, got int, rounds int, rate float64) {
		t.Helper()
		trials := float64(cfg.N) * float64(rounds)
		want := trials * rate
		sigma := math.Sqrt(trials * rate * (1 - rate))
		if math.Abs(float64(got)-want) > 4*sigma {
			t.Errorf("%s arrivals %d outside %v ± %v", name, got, want, 4*sigma)
		}
	}
	check("burst", burstArr, burstRounds, cfg.BurstRate)
	check("quiet", quietArr, quietRounds, cfg.QuietRate)
}

// TestDiurnalIntegral checks that the realised arrival count matches the
// integral of the rate curve, N·Σ_t RateAt(t), within the binomial CI — and
// that the curve actually modulates the process (peak half vs trough half).
func TestDiurnalIntegral(t *testing.T) {
	cfg := DiurnalConfig{
		N: 100, Rounds: 20_000,
		Base: 0.01, Amp: 0.008, Period: 5_000,
		Seed: 4242,
	}
	p, err := Diurnal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var integral, varSum float64
	for tt := 1; tt <= cfg.Rounds; tt++ {
		r := cfg.RateAt(tt)
		integral += r
		varSum += r * (1 - r)
	}
	want := float64(cfg.N) * integral
	sigma := math.Sqrt(float64(cfg.N) * varSum)
	if got := float64(len(p.Arrivals)); math.Abs(got-want) > 4*sigma {
		t.Errorf("diurnal total %v outside curve integral %v ± %v", got, want, 4*sigma)
	}
	// First half-period (rising sine) must out-arrive the second (falling).
	var peak, trough int
	for _, a := range p.Arrivals {
		switch phase := a.Round % cfg.Period; {
		case phase > 0 && phase <= cfg.Period/2:
			peak++
		default:
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("curve not modulating: peak-half %d ≤ trough-half %d", peak, trough)
	}
}

// TestRegenerationBitIdentical pins determinism: expanding the same config
// twice yields byte-identical plans (and epochs).
func TestRegenerationBitIdentical(t *testing.T) {
	pc := PoissonConfig{N: 50, Rounds: 5_000, Rate: 0.01, Seed: 11}
	p1, err1 := Poisson(pc)
	p2, err2 := Poisson(pc)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("Poisson regeneration differs")
	}

	mc := MMPPConfig{N: 50, Rounds: 5_000, QuietRate: 0.001, BurstRate: 0.05,
		MeanQuiet: 300, MeanBurst: 80, Seed: 11}
	m1, e1, err1 := MMPP(mc)
	m2, e2, err2 := MMPP(mc)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(e1, e2) {
		t.Error("MMPP regeneration differs")
	}

	dc := DiurnalConfig{N: 50, Rounds: 5_000, Base: 0.01, Amp: 0.005,
		Period: 1_000, Seed: 11}
	d1, err1 := Diurnal(dc)
	d2, err2 := Diurnal(dc)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("Diurnal regeneration differs")
	}

	// Different seeds must differ (the generators actually consume the seed).
	p3, _ := Poisson(PoissonConfig{N: 50, Rounds: 5_000, Rate: 0.01, Seed: 12})
	if reflect.DeepEqual(p1, p3) {
		t.Error("Poisson ignores its seed")
	}
}

// TestNIndependence pins the churn.Plan discipline: growing the network must
// leave every existing node's arrival schedule bit-identical.
func TestNIndependence(t *testing.T) {
	build := func(n int) map[string]*Plan {
		t.Helper()
		out := map[string]*Plan{}
		p, err := Poisson(PoissonConfig{N: n, Rounds: 8_000, Rate: 0.008, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		out["poisson"] = p
		m, _, err := MMPP(MMPPConfig{N: n, Rounds: 8_000, QuietRate: 0.001,
			BurstRate: 0.04, MeanQuiet: 400, MeanBurst: 100, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		out["mmpp"] = m
		d, err := Diurnal(DiurnalConfig{N: n, Rounds: 8_000, Base: 0.008,
			Amp: 0.006, Period: 2_000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		out["diurnal"] = d
		return out
	}
	small, big := build(40), build(80)
	for name := range small {
		a, b := perNode(small[name]), perNode(big[name])
		for u := 0; u < 40; u++ {
			if !reflect.DeepEqual(a[u], b[u]) {
				t.Errorf("%s: node %d arrivals changed when n grew 40→80", name, u)
				break
			}
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := Poisson(PoissonConfig{N: 0, Rounds: 10, Rate: 0.1}); err == nil {
		t.Error("Poisson accepted N=0")
	}
	if _, err := Poisson(PoissonConfig{N: 1, Rounds: 10, Rate: math.Inf(1)}); err == nil {
		t.Error("Poisson accepted infinite rate")
	}
	if _, _, err := MMPP(MMPPConfig{N: 1, Rounds: 10, QuietRate: -1, BurstRate: 0.5,
		MeanQuiet: 5, MeanBurst: 5}); err == nil {
		t.Error("MMPP accepted negative rate")
	}
	if _, _, err := MMPP(MMPPConfig{N: 1, Rounds: 10, QuietRate: 0.1, BurstRate: 0.5,
		MeanQuiet: 0, MeanBurst: 5}); err == nil {
		t.Error("MMPP accepted zero regime duration")
	}
	if _, err := Diurnal(DiurnalConfig{N: 1, Rounds: 10, Base: 0.1, Period: 0}); err == nil {
		t.Error("Diurnal accepted zero period")
	}
	bad := &Plan{N: 2, Rounds: 10, Arrivals: []Arrival{{Round: 5, Node: 1}, {Round: 4, Node: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-order arrivals")
	}
	bad = &Plan{N: 2, Rounds: 10, Arrivals: []Arrival{{Round: 5, Node: 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-range node")
	}
}

// TestPlanZeroRate pins the degenerate cases: rate 0 yields an empty, valid
// plan; OfferedLoad reflects the density.
func TestPlanZeroRate(t *testing.T) {
	p, err := Poisson(PoissonConfig{N: 10, Rounds: 100, Rate: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Arrivals) != 0 || p.Validate() != nil || p.OfferedLoad() != 0 {
		t.Errorf("zero-rate plan not empty/valid: %+v", p)
	}
}

// perNode returns each node's arrival rounds in ascending order.
func perNode(p *Plan) [][]int {
	out := make([][]int, p.N)
	for _, a := range p.Arrivals {
		out[a.Node] = append(out[a.Node], a.Round)
	}
	return out
}
