package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

var rate = metricSpec{Name: "node_rounds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25}

// around returns ten samples spread ±spread/2 around centre, in an order
// that is not sorted, as interleaved runs come back.
func around(centre, spread float64) []float64 {
	steps := []float64{0.1, -0.5, 0.3, 0.5, -0.3, 0, -0.1, 0.4, -0.4, 0.2}
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = centre * (1 + s*spread)
	}
	return out
}

func TestJudgeIdenticalSamplesNoChange(t *testing.T) {
	s := around(100, 0.05)
	j := judge(series{metric: rate, parent: s, change: append([]float64(nil), s...)})
	if j.verdict != verdictSame || j.wins != 0 {
		t.Errorf("identical samples: verdict %q with %d wins, want %q with 0", j.verdict, j.wins, verdictSame)
	}
}

func TestJudgeShiftBeyondBoundRegressed(t *testing.T) {
	j := judge(series{metric: rate, parent: around(100, 0.05), change: around(70, 0.05)})
	if j.verdict != verdictRegressed {
		t.Errorf("30%% slower with a 5%% spread: verdict %q, want %q", j.verdict, verdictRegressed)
	}
	// The same shift the right way is a gain, and a shift within the bound
	// is no regression.
	if j := judge(series{metric: rate, parent: around(100, 0.05), change: around(130, 0.05)}); j.verdict != verdictBetter {
		t.Errorf("30%% faster with a 5%% spread: verdict %q, want %q", j.verdict, verdictBetter)
	}
	if j := judge(series{metric: rate, parent: around(100, 0.05), change: around(90, 0.05)}); j.verdict != verdictSame {
		t.Errorf("10%% slower against a 25%% bound: verdict %q, want %q", j.verdict, verdictSame)
	}
}

func TestJudgeWideSpreadUnresolved(t *testing.T) {
	j := judge(series{metric: rate, parent: around(100, 0.8), change: around(60, 0.8)})
	if j.verdict != verdictUnresolved {
		t.Errorf("spread wider than the bound: verdict %q, want %q", j.verdict, verdictUnresolved)
	}
	// Unless every change run beats every parent run.
	parent := around(100, 0.8)
	change := make([]float64, len(parent))
	for i := range change {
		change[i] = 200 + float64(i)
	}
	if j := judge(series{metric: rate, parent: parent, change: change}); j.verdict == verdictUnresolved {
		t.Errorf("every change run better: verdict %q, want a resolved one", j.verdict)
	}
}

// TestABFailsOnIncorrectChangeRun: a change run that reports correct: false
// fails the A/B even when every metric is unchanged; a parent run that does
// is reported but is not the change's failure.
func TestABFailsOnIncorrectChangeRun(t *testing.T) {
	spec := &benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{Name: "w"}},
		EndToEnd: []metricSpec{rate},
	}
	run := func(correct bool) *benchResult {
		r, err := parseBenchResult([]byte("metric lines\n" +
			`{"correct": ` + map[bool]string{true: "true", false: "false"}[correct] +
			`, "attempted": 3, "failed": 0, "metrics": {"node_rounds_per_s": {"value": 100, "unit": "1/s"}}}` + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fill := func(rep *abReport) {
		for _, b := range microBenches {
			for _, side := range []string{"parent", "change"} {
				rep.add(side, b.name, "ns/op", 1)
				rep.add(side, b.name, "allocs/op", 0)
			}
		}
	}
	for _, tc := range []struct {
		name                   string
		parentOK, changeOK, ok bool
	}{
		{"both correct", true, true, true},
		{"parent incorrect", false, true, true},
		{"change incorrect", true, false, false},
	} {
		rep := newABReport("HEAD", spec)
		fill(rep)
		if err := rep.addRun("parent", "w", 1001, run(tc.parentOK)); err != nil {
			t.Fatal(err)
		}
		if err := rep.addRun("change", "w", 1001, run(tc.changeOK)); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		pass, err := rep.render(&out)
		if err != nil {
			t.Fatal(err)
		}
		if pass != tc.ok {
			t.Errorf("%s: pass = %v, want %v\n%s", tc.name, pass, tc.ok, out.String())
		}
	}
}

func TestParseGoBench(t *testing.T) {
	out := []byte("goos: linux\nBenchmarkNetworkRoundLarge-4 100 9 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkNetworkRound-4   \t  250000\t      4790 ns/op\t     128 B/op\t       3 allocs/op\nPASS\n")
	ns, allocs, err := parseGoBench(out, "BenchmarkNetworkRound")
	if err != nil || ns != 4790 || allocs != 3 {
		t.Errorf("parseGoBench = %v, %v, %v; want 4790, 3, nil", ns, allocs, err)
	}
	if _, _, err := parseGoBench(out, "BenchmarkSINRRound"); err == nil {
		t.Error("parseGoBench found a benchmark the output lacks")
	}
}

// TestABProvenance pins the header an A/B report opens with: both
// revisions, whether the change side has uncommitted edits, the Go
// version, GOMAXPROCS and the CPU model, which cpuModel takes from the
// first "model name" line of /proc/cpuinfo.
func TestABProvenance(t *testing.T) {
	const parent, head = "c3f4577ab0038effe7286d70bf889a317e465807", "0123456789abcdef0123456789abcdef01234567"
	got := provenance("HEAD~1", parent, head, true, "Example CPU @ 2.00GHz")
	for _, want := range []string{
		"parent HEAD~1 (c3f4577ab003)", "working tree at 0123456789ab with uncommitted changes",
		runtime.Version(), fmt.Sprintf("GOMAXPROCS %d of %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"Example CPU @ 2.00GHz",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("provenance lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(provenance("HEAD~1", parent, head, false, "x"), "uncommitted") {
		t.Error("a clean working tree is reported as modified")
	}
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: other\n"
	if m := cpuModel(info); m != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpuModel = %q", m)
	}
	if m := cpuModel("processor\t: 0\n"); m != "CPU model unknown" {
		t.Errorf("cpuModel without a model line = %q", m)
	}
}
