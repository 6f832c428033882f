package main

import (
	"strings"
	"testing"
)

// mkReport builds a report with the given experiment names and speedups.
func mkReport(names []string, speedups map[string]float64) *report {
	r := &report{Speedups: speedups}
	for _, n := range names {
		r.Experiments = append(r.Experiments, struct {
			Name string `json:"name"`
		}{n})
	}
	return r
}

// TestComparePasses pins the quiet path: same schema, speedups within
// tolerance (including slightly below baseline).
func TestComparePasses(t *testing.T) {
	baseline := mkReport([]string{"a", "b"}, map[string]float64{"x": 10.0, "y": 4.0})
	current := mkReport([]string{"b", "a", "extra"}, map[string]float64{"x": 8.0, "y": 4.5, "z": 1.0})
	if v := compare(baseline, current, 0.25); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// TestCompareRegression pins the gate: a speedup below baseline×(1−tol)
// fails with the numbers in the message.
func TestCompareRegression(t *testing.T) {
	baseline := mkReport(nil, map[string]float64{"x": 10.0})
	current := mkReport(nil, map[string]float64{"x": 7.4})
	v := compare(baseline, current, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "speedup x regressed") {
		t.Fatalf("violations = %v", v)
	}
}

// TestCompareSchemaShrink pins the schema half: vanished experiments and
// vanished speedup keys both fail.
func TestCompareSchemaShrink(t *testing.T) {
	baseline := mkReport([]string{"a", "b"}, map[string]float64{"x": 10.0})
	current := mkReport([]string{"a"}, map[string]float64{})
	v := compare(baseline, current, 0.25)
	if len(v) != 2 {
		t.Fatalf("want 2 violations, got %v", v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "experiment b vanished") || !strings.Contains(joined, "speedup x vanished") {
		t.Fatalf("violations = %v", v)
	}
}

// TestCompareNewEntriesIgnored pins that additions never fail the gate —
// the baseline ratchets forward only when committed.
func TestCompareNewEntriesIgnored(t *testing.T) {
	baseline := mkReport([]string{"a"}, map[string]float64{"x": 2.0})
	current := mkReport([]string{"a", "new"}, map[string]float64{"x": 2.0, "brand": 0.1})
	if v := compare(baseline, current, 0.25); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// TestCompareInformationalNotGated pins the split: an informational entry
// may fall by any amount — a throughput is a property of the runner —
// but may not vanish.
func TestCompareInformationalNotGated(t *testing.T) {
	baseline := mkReport(nil, map[string]float64{"x": 2.0})
	baseline.Informational = map[string]float64{"per_sec": 82000, "other_per_sec": 8000}
	current := mkReport(nil, map[string]float64{"x": 2.0})
	current.Informational = map[string]float64{"per_sec": 9000}
	v := compare(baseline, current, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "informational entry other_per_sec vanished") {
		t.Fatalf("violations = %v", v)
	}
}
