package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lbcast/internal/world"
)

// TestUnknownExpError pins the unknown-experiment UX: the error must name
// the rejected experiment and enumerate every valid -exp mode (main exits
// non-zero on any runExp error).
func TestUnknownExpError(t *testing.T) {
	err := runExp("bogus", "small", 1, "", "", nil)
	if err == nil {
		t.Fatal("runExp accepted an unknown experiment")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error does not name the rejected experiment: %q", msg)
	}
	for _, mode := range expModes {
		if !strings.Contains(msg, mode) {
			t.Errorf("error does not list valid experiment %q: %q", mode, msg)
		}
	}
}

// TestExpModesComplete keeps the enumerated list in sync with the dispatch:
// every registered mode must be distinct and include the four subsystems.
func TestExpModesComplete(t *testing.T) {
	want := map[string]bool{"chaos": true, "churn": true, "comparison": true, "load": true}
	seen := map[string]bool{}
	for _, m := range expModes {
		if seen[m] {
			t.Errorf("duplicate mode %q", m)
		}
		seen[m] = true
		delete(want, m)
	}
	for m := range want {
		t.Errorf("expModes missing %q", m)
	}
}

// TestBadSizeError covers the other rejection path shared by all modes.
func TestBadSizeError(t *testing.T) {
	if err := runExp("load", "giant", 1, "", "", nil); err == nil {
		t.Error("runExp accepted an unknown size")
	}
}

// TestUnknownPolicyError pins the -policies UX: an unknown policy name
// fails (main exits non-zero) and the error enumerates the registered set.
func TestUnknownPolicyError(t *testing.T) {
	for _, mode := range []string{"comparison", "churn", "load"} {
		err := runExp(mode, "small", 1, "", "", []string{"bogus"})
		if err == nil {
			t.Errorf("%s accepted an unknown policy", mode)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, `"bogus"`) {
			t.Errorf("%s error does not name the rejected policy: %q", mode, msg)
		}
		for _, name := range world.Names() {
			if !strings.Contains(msg, name) {
				t.Errorf("%s error does not list registered policy %q: %q", mode, name, msg)
			}
		}
	}
	if err := runExp("chaos", "small", 1, "", "", []string{"lbalg"}); err == nil {
		t.Error("chaos accepted a -policies selection")
	}
}

// TestSplitPolicies covers the flag parsing helper.
func TestSplitPolicies(t *testing.T) {
	if got := splitPolicies(""); got != nil {
		t.Errorf("empty flag parsed as %v, want nil (default set)", got)
	}
	got := splitPolicies(" lbalg, decay ,")
	if len(got) != 2 || got[0] != "lbalg" || got[1] != "decay" {
		t.Errorf("splitPolicies = %v, want [lbalg decay]", got)
	}
}

// TestListPolicies checks the -policies list mode prints every registered
// name with its description.
func TestListPolicies(t *testing.T) {
	var sb strings.Builder
	listPolicies(&sb)
	out := sb.String()
	for _, p := range world.All() {
		if !strings.Contains(out, p.Name) {
			t.Errorf("listing missing policy %q", p.Name)
		}
		if !strings.Contains(out, p.Description) {
			t.Errorf("listing missing description for %q", p.Name)
		}
	}
}

// TestHostileFlagsReturnErrors runs the single-configuration report with
// flag values that once panicked, spun or printed nonsense: each must come
// back as an error (main exits non-zero) before any round runs.
func TestHostileFlagsReturnErrors(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		topo    string
		n       int
		r, eps  float64
		schedP  float64
		phases  int
		senders int
	}{
		{"-n -3", "cluster", -3, 1.5, 0.1, 0.5, 6, 3},
		{"-eps 1e-300", "cluster", 16, 1.5, 1e-300, 0.5, 6, 3},
		{"-phases -1", "cluster", 16, 1.5, 0.1, 0.5, -1, 3},
		{"-phases beyond int32 rounds", "cluster", 16, 1.5, 0.1, 0.5, 1 << 40, 3},
		{"-senders -1", "cluster", 16, 1.5, 0.1, 0.5, 6, -1},
		{"-r 1e9 -topo geometric", "geometric", 16, 1e9, 0.1, 0.5, 6, 3},
		{"-r NaN -topo geometric", "geometric", 16, nan, 0.1, 0.5, 6, 3},
		{"-sched-p NaN", "cluster", 16, 1.5, 0.1, nan, 6, 3},
		{"-sched-p -1", "cluster", 16, 1.5, 0.1, -1, 6, 3},
		{"-sched-p 2", "cluster", 16, 1.5, 0.1, 2, 6, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := run(tc.topo, tc.n, tc.r, tc.eps, "random", tc.schedP, tc.phases, tc.senders, 1, ""); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestRFlagValidatedForEveryTopology pins that -r is checked before any
// topology is built: a value that is not finite and ≥ 1 is an error naming
// the flag on every topology, including cluster, which does not use r, and
// twotier, which once clamped it to 1.5 silently.
func TestRFlagValidatedForEveryTopology(t *testing.T) {
	for _, topo := range []string{"cluster", "geometric", "twotier", "line", "grid"} {
		for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.999, 0.5, 0, -1} {
			t.Run(fmt.Sprintf("-topo %s -r %v", topo, r), func(t *testing.T) {
				err := run(topo, 16, r, 0.1, "random", 0.5, 1, 3, 1, "")
				if err == nil || !strings.Contains(err.Error(), "-r ") {
					t.Fatalf("run returned %v, want the -r error", err)
				}
			})
		}
	}
}

// TestNFlagValidatedForEveryTopology pins that -n is checked before any
// topology is built: a count below 1 is an error naming the flag on every
// topology, and so is one past the topology's limit (the clique size on
// cluster and twotier), which would otherwise build a network the machine
// cannot hold.
func TestNFlagValidatedForEveryTopology(t *testing.T) {
	for _, topo := range []string{"cluster", "geometric", "twotier", "line", "grid"} {
		for _, n := range []int{-3, 0, nLimit(topo) + 1} {
			t.Run(fmt.Sprintf("-topo %s -n %d", topo, n), func(t *testing.T) {
				err := run(topo, n, 1.5, 0.1, "random", 0.5, 1, 3, 1, "")
				if err == nil || !strings.Contains(err.Error(), "-n ") {
					t.Fatalf("run returned %v, want the -n error", err)
				}
			})
		}
	}
}

// TestDefaultRunAcks runs the single-configuration report with the flag
// defaults: -phases 0 must run long enough for the saturated senders'
// broadcasts to ack, so the report counts completed broadcasts.
func TestDefaultRunAcks(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run("cluster", 16, 1.5, 0.1, "random", 0.5, 0, 3, 1, "")
	os.Stdout = stdout
	w.Close()
	report := <-out
	if runErr != nil {
		t.Fatalf("default run failed: %v\n%s", runErr, report)
	}
	m := regexp.MustCompile(`broadcasts completed\s+(\d+)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report has no broadcasts-completed row:\n%s", report)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("default run completed no broadcast:\n%s", report)
	}
}
