// mqss-bench regenerates the paper-reproduction experiment tables and
// writes the machine-readable bench report the CI gate compares.
//
// Usage:
//
//	mqss-bench -all                    # run every experiment
//	mqss-bench -exp EXP-C2             # run one experiment
//	mqss-bench -list                   # list experiment IDs
//	mqss-bench -json                   # write the machine-readable bench report
//	mqss-bench -json -out BENCH_x.json # ... to a chosen path
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"mqsspulse/internal/experiments"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
	"mqsspulse/tools/mqssvet/suite"
)

// benchEntry is one machine-readable benchmark record of the -json report.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the -json report document: the sweep, evolve, fleet,
// telemetry, open-system shots, and static-analysis experiments plus
// derived numbers. Speedups are the ratios benchgate holds a floor under;
// Informational carries absolute throughputs, a property of the machine
// — reported, schema-checked, never gated.
type benchReport struct {
	Points        int                `json:"points"`
	Experiments   []benchEntry       `json:"experiments"`
	Speedups      map[string]float64 `json:"speedups"`
	Informational map[string]float64 `json:"informational"`
}

// measure runs f under testing.Benchmark and folds the result into a
// benchEntry; an error inside the loop aborts the measurement.
func measure(name string, f func() error) (benchEntry, error) {
	var failed error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				failed = err
				return
			}
		}
	})
	if failed != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", name, failed)
	}
	return benchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

// sweepEntries benchmarks the compile-once/bind-per-point sweep path
// against the per-point-recompile baseline (the ISSUE 6 tentpole numbers).
func sweepEntries(points int) ([]benchEntry, map[string]float64, error) {
	bound, recompile, err := experiments.SweepBenchRig(points)
	if err != nil {
		return nil, nil, err
	}
	be, err := measure(fmt.Sprintf("sweep_bound_%d", points), bound)
	if err != nil {
		return nil, nil, err
	}
	re, err := measure(fmt.Sprintf("sweep_recompile_%d", points), recompile)
	if err != nil {
		return nil, nil, err
	}
	return []benchEntry{be, re},
		map[string]float64{"recompile_over_bound": re.NsPerOp / be.NsPerOp}, nil
}

// evolveEntry benchmarks the pulse-integration hot loop on the shared
// 2-transmon EXP-P1 rig (1024-sample Gaussian on every channel).
func evolveEntry() (benchEntry, error) {
	ex, sp, err := experiments.EvolveBenchRig(
		waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 1024, nil)
	if err != nil {
		return benchEntry{}, err
	}
	return measure("evolve_gaussian_1024", func() error {
		_, err := ex.Run(sp, simq.ExecOptions{Shots: 1})
		return err
	})
}

// fleetEntry benchmarks a 64-job burst through a 4-member pool — the
// fleet scheduler path every lifecycle span now instruments.
func fleetEntry() (benchEntry, error) {
	run, _, cleanup, err := experiments.FleetBenchRig(context.Background(), 4, 0)
	if err != nil {
		return benchEntry{}, err
	}
	defer cleanup()
	return measure("fleet_batch_64_pool4", func() error { return run(64) })
}

// telemetryEntry benchmarks the instrumentation primitives themselves —
// one span record plus one histogram observation — pinning the per-stage
// overhead budget the observability layer adds to every job.
func telemetryEntry() (benchEntry, error) {
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("bench", reg)
	start := time.Now()
	return measure("telemetry_span_record", func() error {
		tl.Record(telemetry.StageDispatch, "bench-dev", start, time.Microsecond, 0)
		reg.Observe("queue_wait/device/bench-dev", time.Microsecond)
		return nil
	})
}

// shotsEntry benchmarks a 256-shot open-system job under default options
// (density engine, serial sampling) and derives its absolute shots/sec
// throughput — informational: a property of the machine.
func shotsEntry() (benchEntry, map[string]float64, error) {
	ex, sp, err := experiments.ShotBenchRig()
	if err != nil {
		return benchEntry{}, nil, err
	}
	const shots = 256
	serial, err := measure(fmt.Sprintf("shots_serial_density_%d", shots), func() error {
		_, err := ex.Run(sp, simq.ExecOptions{Shots: shots})
		return err
	})
	if err != nil {
		return benchEntry{}, nil, err
	}
	return serial, map[string]float64{
		"shots_per_sec_serial_density": shots * 1e9 / serial.NsPerOp,
	}, nil
}

// mqssvetEntry times one full-repo static-analysis pass — loader, all
// CFG-backed analyzers, cross-package Finish joins — as a single wall-
// time sample rather than a testing.Benchmark loop (one op costs
// seconds; looping it buys no precision worth the CI minutes). It keeps
// the lint step's latency an explicit, gated number instead of a slowly
// rotting line item in the CI log.
func mqssvetEntry() (benchEntry, error) {
	start := time.Now()
	diags, _, err := suite.Analyze(".", []string{"./..."})
	if err != nil {
		return benchEntry{}, fmt.Errorf("mqssvet_full_repo: %w", err)
	}
	_ = diags // findings are CI's business; here only the duration matters
	return benchEntry{
		Name:    "mqssvet_full_repo",
		NsPerOp: float64(time.Since(start).Nanoseconds()),
	}, nil
}

// writeBenchJSON runs every -json experiment and writes the folded report
// to path.
func writeBenchJSON(path string) error {
	const points = 1024
	entries, speedups, err := sweepEntries(points)
	if err != nil {
		return err
	}
	for _, f := range []func() (benchEntry, error){evolveEntry, fleetEntry, telemetryEntry, mqssvetEntry} {
		e, err := f()
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	shots, informational, err := shotsEntry()
	if err != nil {
		return err
	}
	entries = append(entries, shots)
	report := benchReport{Points: points, Experiments: entries, Speedups: speedups, Informational: informational}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s:\n", path)
	for _, e := range report.Experiments {
		fmt.Printf("  %-24s %12.4gms/op %8d allocs/op\n", e.Name, e.NsPerOp/1e6, e.AllocsPerOp)
	}
	fmt.Printf("  speedup recompile/bound: %.1f×\n", report.Speedups["recompile_over_bound"])
	fmt.Printf("  serial density (not gated): %.0f shots/s\n", informational["shots_per_sec_serial_density"])
	return nil
}

func main() {
	all := flag.Bool("all", false, "run every experiment")
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. EXP-F1)")
	list := flag.Bool("list", false, "list experiment IDs")
	jsonOut := flag.Bool("json", false,
		"benchmark the sweep, evolve, fleet, telemetry, open-system shots, and mqssvet paths and write a machine-readable report")
	out := flag.String("out", "BENCH_15.json", "output path for the -json report")
	flag.Parse()

	ids := []string{"EXP-F1", "EXP-F2", "EXP-F3", "EXP-L1", "EXP-L2", "EXP-L3",
		"EXP-C1", "EXP-C2", "EXP-C3", "EXP-P1"}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	run := func(id string) {
		f, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tab, err := f(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	switch {
	case *jsonOut:
		if err := writeBenchJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "bench json failed: %v\n", err)
			os.Exit(1)
		}
	case *all:
		for _, id := range ids {
			run(id)
		}
	case *exp != "":
		run(*exp)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
