package workload

import "testing"

// TestScenarioPresets pins the catalog: every preset builds, validates, and
// carries its documented queue discipline.
func TestScenarioPresets(t *testing.T) {
	want := map[string]struct {
		capacity int
		policy   DropPolicy
	}{
		"iot-telemetry": {4, DropOldest},
		"alarm-flood":   {16, DropNewest},
		"gossip-storm":  {32, DropNewest},
	}
	names := ScenarioNames()
	if len(names) != len(want) {
		t.Fatalf("ScenarioNames = %v", names)
	}
	for _, name := range names {
		sc, err := BuildScenario(name, 40, 10_000, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", name, err)
		}
		if len(sc.Plan.Arrivals) == 0 {
			t.Errorf("%s: empty plan", name)
		}
		w := want[name]
		if sc.Capacity != w.capacity || sc.Policy != w.policy {
			t.Errorf("%s: discipline %d/%v, want %d/%v", name, sc.Capacity, sc.Policy, w.capacity, w.policy)
		}
		if name == "alarm-flood" && len(sc.Bursts) == 0 {
			t.Error("alarm-flood reported no burst epochs")
		}
	}
	if _, err := BuildScenario("nope", 40, 100, 1); err == nil {
		t.Error("BuildScenario accepted an unknown preset")
	}
}
