package mqsspulse_test

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/telemetry"
)

// The allocation contracts of the stack's per-job fixed cost, as
// machine-independent ceilings on objects allocated per operation. The
// wall-clock evidence is benchmark/ (see ARCHITECTURE.md, "Performance
// evidence"); the compile-once/bind-per-point property of a sweep is
// TestSweepE2ERabi1024 and the device-level job cost is
// TestWarmJobAllocations. Each job ceiling sits about 9% above the value
// measured under -race, where sync.Pool drops a quarter of its Puts at
// random and a job that draws a dropped simulator scratch rebuilds it; that
// margin also covers a collection emptying the pools mid-run. The plain
// numbers are the ones to read, and CI asserts them in a step of their own
// without the race detector. A change that moves a number past its ceiling
// has put set-up back on the per-job path.

// perfContractStack is the benchmark's cached_job rig: one tiny
// single-qubit open-system simulator whose simulation costs microseconds,
// so a job on it measures the stack around the simulator.
func perfContractStack(t *testing.T) *mqsspulse.Stack {
	t.Helper()
	dev, err := devices.New(tinyFleetConfig("tiny-1", 7))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	return stack
}

// TestPerfContractSpanRecord: one lifecycle span plus one histogram
// observation — what every stage of every job pays for being observable —
// allocates nothing.
func TestPerfContractSpanRecord(t *testing.T) {
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("perf-contract", reg)
	start := time.Now()
	record := func() {
		tl.Record(telemetry.StageDispatch, "dev", start, time.Microsecond, 0)
		reg.Observe("queue_wait/device/dev", time.Microsecond)
	}
	record() // creates the histogram
	// Measured 2026-10-15: 0 (1 while a span spelled its stage histogram's
	// name; the span slice's growth amortises to nothing).
	if n := testing.AllocsPerRun(1000, record); n > 0 {
		t.Fatalf("span record + observe allocates %v objects, want 0", n)
	}
}

// TestPerfContractCachedJob: a warm cached X+Measure job at 16 shots,
// through qpi.Run → NativeAdapter → lowering cache → QRM → SimDevice.
func TestPerfContractCachedJob(t *testing.T) {
	stack := perfContractStack(t)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "tiny-1"}
	k := fleetKernel(t)
	job := func() {
		if _, err := mqsspulse.Run(context.Background(), ad, k, mqsspulse.WithShots(16)); err != nil {
			t.Fatal(err)
		}
	}
	job() // compiles the kernel, builds the device's engine, prepares the program
	// Measured 2026-10-15: 41, 46–47 under -race (51 and 56–57 while a
	// timeline grew its span slice from empty and named its stage
	// histograms; 54 and 60 while the QRM worker spelled its histogram
	// names and listed its queues per job; 133 and 136 when every job
	// re-linked its module and built its own simulator scratch).
	if n := testing.AllocsPerRun(200, job); n > 51 {
		t.Fatalf("warm cached job allocates %v objects, want ≤ 51", n)
	}
}

// TestPerfContractOpenSystemShots: the benchmark's open_shots operation, a
// warm 4,096-shot square-pulse job on sc-2 through qpi.Run, still asking
// for two shot workers as the benchmark does. The shots are drawn on the
// job's own goroutine, so none of the job's objects is per shot or per
// worker.
func TestPerfContractOpenSystemShots(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("sc-2", 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "sc-2"}
	k := mqsspulse.NewCircuit("square_shots", 2, 2).
		WaveformEnvelope("square", mqsspulse.Constant{Amplitude: 0.5}, 256).
		PlayWaveform("q0-drive", "square").
		PlayWaveform("q1-drive", "square").
		PlayWaveform("q0q1-coupler", "square").
		Barrier().
		Delay("q0-drive", 256).
		Measure(0, 0).Measure(1, 1)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	job := func() {
		if _, err := mqsspulse.Run(context.Background(), ad, k, mqsspulse.WithShots(4096), qpi.WithShotWorkers(2)); err != nil {
			t.Fatal(err)
		}
	}
	job() // compiles the kernel, fills the propagator cache, prepares the program
	if raceDetector() {
		// Each pooled scratch a dropped Put costs is rebuilt inside one job,
		// so the -race reading scatters over 46–51; the step without the race
		// detector asserts this contract.
		t.Skip("allocation reading scatters under -race")
	}
	// Counted as the benchmark counts it, at the process's own GOMAXPROCS:
	// testing.AllocsPerRun runs at GOMAXPROCS 1, where a device capped its
	// shot workers to one, so it could not see a worker pool.
	const jobs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range jobs {
		job()
	}
	runtime.ReadMemStats(&after)
	// Measured 2026-10-16 on 2 vCPU: 41.0–41.6 (53.8 while the device drew
	// the shots on two workers).
	if n := float64(after.Mallocs-before.Mallocs) / jobs; n > 45 {
		t.Fatalf("warm open-system job allocates %v objects, want ≤ 45", n)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestPerfContractNoGoroutinePerJob: a job runs on the QRM worker that
// dispatched it, so the moment qpi.Run returns nothing of the job is still
// unwinding — warm jobs leave the goroutine count where it started.
func TestPerfContractNoGoroutinePerJob(t *testing.T) {
	stack := perfContractStack(t)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "tiny-1"}
	k := fleetKernel(t)
	job := func() {
		if _, err := mqsspulse.Run(context.Background(), ad, k, mqsspulse.WithShots(16)); err != nil {
			t.Fatal(err)
		}
	}
	job() // spawns the device's QRM worker
	before := runtime.NumGoroutine()
	for range 64 {
		job()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("a warm job left the goroutine count at %d, started at %d", n, before)
		}
	}
}

// TestPerfContractBoundSweepPoint: one warm point of a bound Rabi template
// — bound at dispatch, no recompilation — averaged over the benchmark's
// 1024-point RunSweep. The sweep size is part of the contract: all points
// are queued before the first one runs. The device prepared the template
// once and binds each point into that program, so a point builds no module,
// schedule or program of its own.
func TestPerfContractBoundSweepPoint(t *testing.T) {
	stack := perfContractStack(t)
	k := mqsspulse.NewCircuit("rabi_sweep", 1, 1).RXP(0, mqsspulse.Sym("theta")).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	tpl, err := mqsspulse.NewTemplate(k, mqsspulse.TemplateParam{Name: "theta", Min: 0.05, Max: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	const points = 1024
	bindings := make([]mqsspulse.Bindings, points)
	for i := range bindings {
		bindings[i] = mqsspulse.Bindings{"theta": 0.05 + (math.Pi-0.05)*float64(i)/(points-1)}
	}
	sweep := func() {
		results, err := stack.RunSweep(context.Background(), tpl, "tiny-1", bindings, mqsspulse.SubmitOptions{Shots: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("point %d: %v", i, r.Err)
			}
		}
	}
	sweep() // lowers the template once
	// Measured 2026-10-15: 56.9, 62.4–62.8 under -race (107.9 and
	// 113.3–113.6 while every point was a module of its own that the device
	// linked and prepared; 118.9–119.0 and 124.3–124.5 with a growing span
	// slice per timeline; 122.7 and 129.0 with a formatted trace ID per point
	// and the worker's per-job names; 158 and 160.5 before prepared
	// programs). The ceiling is the roadmap's 65 per point, 3.5% over the
	// -race reading: a reading averaged over 3,072 points moves far less.
	if perPoint := testing.AllocsPerRun(3, sweep) / points; perPoint > 65 {
		t.Fatalf("warm bound sweep point allocates %.1f objects, want ≤ 65", perPoint)
	}
}
