// Command benchgate is the CI perf-regression gate: it compares a
// freshly generated mqss-bench report against the committed baseline
// (BENCH_<n>.json) and fails when the report schema shrank or any
// tracked speedup regressed beyond the tolerance.
//
//	go run ./cmd/mqss-bench -json -out BENCH_ci.json
//	go run ./tools/benchgate -baseline BENCH_15.json -current BENCH_ci.json
//
// Two invariants are enforced. Schema: every experiment name, speedup key
// and informational key in the baseline must still exist in the current
// report — a benchmark that silently vanishes is a gate bypass, not a
// cleanup. Performance: every speedup entry (all are higher-is-better
// ratios) must stay above baseline×(1−tolerance); the default 25% leaves
// room for runner jitter while catching an order-of-magnitude claim
// (recompile-over-bound) falling over. Absolute ns/op and throughputs
// are deliberately not gated: CI runners vary too much, but a *ratio*
// measured in the same process on the same machine does not. Absolute
// throughputs (shots per second) live in the report's informational map:
// present, never compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the mqss-bench -json schema, loosely: only the fields
// the gate inspects.
type report struct {
	Experiments []struct {
		Name string `json:"name"`
	} `json:"experiments"`
	Speedups      map[string]float64 `json:"speedups"`
	Informational map[string]float64 `json:"informational"`
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline report (BENCH_<n>.json)")
	currentPath := flag.String("current", "", "freshly generated report to gate")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional speedup regression before failing")
	flag.Parse()

	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}
	baseline, err := loadReport(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	current, err := loadReport(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	violations := compare(baseline, current, *tolerance)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "benchgate:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d experiments, %d speedups within %.0f%% of %s\n",
		len(baseline.Experiments), len(baseline.Speedups), *tolerance*100, *baselinePath)
}

// loadReport reads and decodes one report file.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare returns every schema hole and speedup regression of current
// against baseline, empty when the gate passes. Informational entries
// only have to exist.
func compare(baseline, current *report, tolerance float64) []string {
	var violations []string

	have := map[string]bool{}
	for _, e := range current.Experiments {
		have[e.Name] = true
	}
	for _, e := range baseline.Experiments {
		if !have[e.Name] {
			violations = append(violations, fmt.Sprintf("experiment %s vanished from the current report", e.Name))
		}
	}

	for name, base := range baseline.Speedups {
		cur, ok := current.Speedups[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("speedup %s vanished from the current report", name))
			continue
		}
		floor := base * (1 - tolerance)
		if cur < floor {
			violations = append(violations, fmt.Sprintf(
				"speedup %s regressed: %.2f → %.2f (floor %.2f at %.0f%% tolerance)",
				name, base, cur, floor, tolerance*100))
		}
	}
	for name := range baseline.Informational {
		if _, ok := current.Informational[name]; !ok {
			violations = append(violations, fmt.Sprintf("informational entry %s vanished from the current report", name))
		}
	}
	return violations
}
