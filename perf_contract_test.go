package mqsspulse_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/testutil"
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
		reg.Hist("queue_wait/device/dev").Observe(time.Microsecond)
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
	// Measured 2026-10-19: 17, 24–26 under -race (18 and 24–27 while a run
	// cloned its measured bits; 19 and 25–27 while it allocated its
	// one-element WorkerBusy slice; 34 and 38–41 while a
	// ticket built a context.WithCancel child and an AfterFunc
	// registration, a run its shot sampler and generator, a density a copy
	// of its dimensions, and a trace ID two objects; 36 and 40–43 while every
	// submit rendered the kernel's cache key; 37 and 41–44 while the QRM's
	// queue entry was an object apart from the ticket; 41 and 46–47
	// on 2026-10-15; 51 and 56–57 while a timeline grew its span slice from
	// empty and named its stage histograms; 54 and 60 while the QRM worker
	// spelled its histogram names and listed its queues per job; 133 and
	// 136 when every job re-linked its module and built its own simulator
	// scratch). The ceiling is the file's margin over the -race reading.
	if n := testing.AllocsPerRun(200, job); n > 30 {
		t.Fatalf("warm cached job allocates %v objects, want ≤ 30", n)
	}
}

// TestPerfContractColdCompile: the benchmark's cold_compile operation, a
// one-shot job whose kernel the client has never seen — a seeded 2-qubit
// gate list of 8 to 48 gates on the benchmark's closed tiny-2 rig — through
// qpi.Run → NativeAdapter → a lowering-cache miss (frontend, pass pipeline,
// backend) → QRM → a device link and run whose propagators the device's
// cache may not hold. The kernels are built before counting.
func TestPerfContractColdCompile(t *testing.T) {
	cfg := tinyFleetConfig("tiny-2", 7)
	cfg.Sites = []devices.SiteConfig{{Dim: 2, FreqHz: 5e9}, {Dim: 2, FreqHz: 5.1e9}}
	cfg.Couplings = []devices.CouplingConfig{{A: 0, Kind: devices.CouplingZZ, RabiHz: 250e6}}
	dev, err := devices.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "tiny-2"}

	const jobs = 4 * 41 // each length from 8 to 48 gates four times
	rng := rand.New(rand.NewSource(1))
	kernels := make([]*mqsspulse.Circuit, jobs+1) // AllocsPerRun warms up on one
	for i := range kernels {
		k := mqsspulse.NewCircuit(fmt.Sprintf("cold_%d", i), 2, 2)
		for range 8 + i%41 {
			q := rng.Intn(2)
			switch rng.Intn(6) {
			case 0:
				k.X(q)
			case 1:
				k.H(q)
			case 2:
				k.SX(q)
			case 3:
				k.RX(q, 2*math.Pi*rng.Float64())
			case 4:
				k.RZ(q, 2*math.Pi*rng.Float64())
			case 5:
				k.CZ(q, 1-q)
			}
		}
		if err := k.Measure(0, 0).Measure(1, 1).End(); err != nil {
			t.Fatal(err)
		}
		kernels[i] = k
	}
	next := 0
	job := func() {
		if _, err := mqsspulse.Run(context.Background(), ad, kernels[next], mqsspulse.WithShots(1)); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Measured 2026-10-20: 558, 587–588 under -race (792 and 867 while each
	// calibrated play had a def and a scaled copy of its pulse of its own;
	// 789 and 861–865 before Prepare planned the evolution; 790 while a run
	// cloned its measured bits; 808 and 882 on 2026-10-17; 811–812 and
	// 883–885 while the client rendered the cache key per submit; End renders
	// it now, before counting, so the job does no less work and the ceiling
	// stays; 1,041–1,044 and 1,083–1,085 while every propagator-cache miss was
	// an eigendecomposition and every module verification built its own
	// symbol tables). The ceiling is the file's margin over the -race reading.
	if n := testing.AllocsPerRun(jobs, job); n > 641 {
		t.Fatalf("cold compile-and-run allocates %v objects, want ≤ 641", n)
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
	if testutil.RaceDetector() {
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
	// Measured 2026-10-19: 17.0 (18.0 while a run cloned its measured bits;
	// 19.0 while it allocated its one-element WorkerBusy slice; 34.0 while
	// the ticket's context, the shot sampler and the density's dimensions
	// were objects of their own per job; 41.0–41.6 on 2026-10-16 on 2 vCPU;
	// 53.8 while the device drew the shots on two workers).
	if n := float64(after.Mallocs-before.Mallocs) / jobs; n > 21 {
		t.Fatalf("warm open-system job allocates %v objects, want ≤ 21", n)
	}
}

// TestPerfContractKerneledShots: the benchmark's shaped_pulse operation, a
// warm 64-shot kerneled job of experiments.PulseKernel (Gaussian plays on
// both drives and the coupler, so every driven tick varies) on sc-2
// through qpi.Run. Its per-shot IQ rows are views of one array per run.
func TestPerfContractKerneledShots(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("sc-2", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "sc-2"}
	k := experiments.PulseKernel(dev)
	job := func() {
		res, err := mqsspulse.Run(context.Background(), ad, k, mqsspulse.WithShots(64), mqsspulse.WithMeasLevel(mqsspulse.MeasKerneled))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IQ) != 64 {
			t.Fatalf("%d IQ rows, want 64", len(res.IQ))
		}
	}
	job() // compiles the kernel, prepares the program
	// Measured 2026-10-19: 20, 29–30 under -race (21 and 31 while a run
	// cloned its measured bits; 84 while each shot's IQ row was an object
	// of its own). The ceiling is the file's margin over the
	// -race reading.
	if n := testing.AllocsPerRun(200, job); n > 34 {
		t.Fatalf("warm kerneled 64-shot job allocates %v objects, want ≤ 34", n)
	}
}

// TestPerfContractNoGoroutinePerJob: a job runs on the goroutine that takes
// it from the QRM's queue — the device's worker, or the caller waiting in
// qpi.Run when nobody is ahead of the job — so the moment qpi.Run returns
// nothing of the job is still unwinding: warm jobs leave the goroutine count
// where it started.
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
	// Measured 2026-10-19: 18.0, 24.1–24.6 under -race (21.0 and 27.9–28.1
	// while each point's Gaussian middle pair, a two-tick stretch at a new
	// amplitude, was a propagator-cache miss: a key, a 2×2 matrix and an
	// entry; 22.0 and 28.9–29.2 while a run cloned its measured bits; 23.0 while it allocated its
	// one-element WorkerBusy slice; 37.0 and 41.9–42.0
	// while a point's ticket built a cancellation context and its run a shot
	// sampler; 51.9 and 57.4 while each point's one propagator-cache miss — the Gaussian's equal middle
	// pair at a new amplitude — was an eigendecomposition; 56.9 and
	// 62.4–62.8 on 2026-10-15; 107.9 and 113.3–113.6 while every point was
	// a module of its own that the device linked and prepared; 118.9–119.0
	// and 124.3–124.5 with a growing span slice per timeline; 122.7 and
	// 129.0 with a formatted trace ID per point and the worker's per-job
	// names; 158 and 160.5 before prepared programs). The ceiling is the
	// file's margin over the -race reading.
	if perPoint := testing.AllocsPerRun(3, sweep) / points; perPoint > 27 {
		t.Fatalf("warm bound sweep point allocates %.1f objects, want ≤ 27", perPoint)
	}
}

// TestPerfContractRemoteJob: the benchmark's remote_job operation, a warm
// discriminated 16-shot X+Measure job through RemoteAdapter.SubmitPayloadCtx
// to a loopback Server in this process, so the count holds the adapter's
// objects and the server's: two frames written and read, the server's job
// through the QRM, the result rebuilt on the client.
func TestPerfContractRemoteJob(t *testing.T) {
	dev, err := devices.New(tinyFleetConfig("tiny-1", 7))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	payload, format, err := stack.Client.Compile(fleetKernel(t), "tiny-1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ad, err := mqsspulse.NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ad.Close)
	opts := mqsspulse.SubmitOptions{Shots: 16, CalibrationEpoch: dev.CalibrationEpoch()}
	job := func() {
		if _, err := ad.SubmitPayloadCtx(context.Background(), "tiny-1", payload, format, opts); err != nil {
			t.Fatal(err)
		}
	}
	job() // registers the payload on the connection, prepares the program
	// Measured 2026-10-19: 20, 25–29 under -race (21 and 29–30 while the
	// server minted a trace ID for every untraced submit; 22 while a run cloned its
	// measured bits; 23 while it allocated its one-element WorkerBusy slice; 24 while the server's
	// request decoder still read template fields; 28 and 35 while every
	// remote ticket hooked onto the server's context and both ends copied
	// the frames field by field; 47 while both ends wrote and read their
	// frames with encoding/json and the adapter rendered the payload's ID
	// per job). The ceiling is the file's margin over the highest -race
	// reading.
	if n := testing.AllocsPerRun(200, job); n > 32 {
		t.Fatalf("warm remote job allocates %v objects, want ≤ 32", n)
	}
}
