package devices

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/testutil"
)

// openSC builds an open-system (T1/T2) superconducting device.
func openSC(t *testing.T, sites int) *SimDevice {
	t.Helper()
	d, err := SuperconductingWithCoherence("sc-open", sites, 30e-6, 20e-6, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// skipJobs moves a fresh device to the job-seed position of one that has
// already run n jobs (a device's k-th job draws the k-th seed of its job
// stream): same (payload, seed) for the next job, cold engine.
func skipJobs(d *SimDevice, n int) *SimDevice {
	for i := 0; i < n; i++ {
		d.jobRng.Int63()
	}
	return d
}

func bellModule() *qir.Module {
	return gateModule("bell", 2, 2, []qir.Call{
		g1(qir.GateIntrinsics["h"], 0),
		{Callee: qir.GateIntrinsics["cx"], Args: []qir.Arg{qir.QubitArg(0), qir.QubitArg(1)}},
		mz(0, 0), mz(1, 1),
	})
}

// runOthers pushes n assorted jobs through d, filling its engine's caches
// with propagators the job under test never asks for as well as ones it
// does.
func runOthers(t *testing.T, d *SimDevice, n int) {
	t.Helper()
	kernels := []*qir.Module{
		gateModule("x", 2, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)}),
		gateModule("h", 2, 1, []qir.Call{g1(qir.GateIntrinsics["h"], 1), mz(1, 0)}),
		bellModule(),
	}
	for i := 0; i < n; i++ {
		runOpts(t, d, kernels[i%len(kernels)], qdmi.JobOptions{Shots: 2})
	}
}

// TestResultsIndependentOfEngineWarmth: a job's counts and IQ records are
// a function of (payload, seed) alone — identical on a device whose engine
// the job itself builds and on one that 50 other jobs have warmed.
func TestResultsIndependentOfEngineWarmth(t *testing.T) {
	const others = 50
	opts := qdmi.JobOptions{Shots: 64, MeasLevel: readout.LevelKerneled}
	want := runOpts(t, skipJobs(openSC(t, 2), others), bellModule(), opts)
	warm := openSC(t, 2)
	runOthers(t, warm, others)
	got := runOpts(t, warm, bellModule(), opts)
	if len(got.IQ) != opts.Shots {
		t.Fatalf("%d IQ records, want %d", len(got.IQ), opts.Shots)
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.IQ, want.IQ) {
		t.Fatalf("warm device disagrees with a fresh one:\n%v\n%v", got.Counts, want.Counts)
	}
}

// TestAdvanceTimeRebuildsEngine is the stale-model guard: after the true
// physics drifts, a warm device must simulate the drifted model, exactly
// as a fresh device advanced the same way does (driftingSC's drift is large
// enough that an engine kept across AdvanceTime could not pass by luck).
func TestAdvanceTimeRebuildsEngine(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 4000}

	warm := driftingSC(t)
	before := runOpts(t, warm, x, opts)
	warm.AdvanceTime(600)
	after := runOpts(t, warm, x, opts)

	fresh := skipJobs(driftingSC(t), 1)
	fresh.AdvanceTime(600)
	want := runOpts(t, fresh, x, opts)
	if !reflect.DeepEqual(after.Counts, want.Counts) {
		t.Fatalf("warm device after AdvanceTime: %v, fresh device advanced the same way: %v", after.Counts, want.Counts)
	}
	if reflect.DeepEqual(after.Counts, before.Counts) {
		t.Fatalf("drift left the counts at %v: the guard has nothing to catch", after.Counts)
	}
}

// TestConcurrentJobsShareOneEngine: eight jobs submitted at once to one
// device run against one engine and one propagator cache (the race
// detector watches them) and return, as a set, what eight jobs submitted
// one after another return; every job goroutine is gone afterwards.
func TestConcurrentJobsShareOneEngine(t *testing.T) {
	testutil.AssertNoLeaks(t)
	const jobs = 8
	opts := qdmi.JobOptions{Shots: 24, MeasLevel: readout.LevelKerneled}
	payload := bellModule().Emit()
	key := func(r *qdmi.Result) string { return fmt.Sprint(r.Counts, r.IQ) }

	serial := openSC(t, 2)
	var want []string
	for i := 0; i < jobs; i++ {
		want = append(want, key(runOpts(t, serial, bellModule(), opts)))
	}

	d := openSC(t, 2)
	got := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := d.SubmitJobOpts(payload, qdmi.FormatQIRBase, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if st := job.Wait(context.Background()); st != qdmi.JobDone {
				t.Errorf("job %d: status %v", i, st)
				return
			}
			res, err := job.Result()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = key(res)
		}(i)
	}
	wg.Wait()
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent jobs returned a different set of results than the same jobs run one by one")
	}
}

// TestWarmJobAllocations pins the per-job fixed cost on the device for a
// warm X+Measure job on an open-system site at 16 shots, none of it per
// shot, on both ways in. Text is parsed into a fresh module per job, so it
// never finds a prepared program and pays parse, link, resolve and prepare
// every time; a module presented again by pointer runs its prepared program.
// Ceilings are the -race measurement plus about 9% (see
// perf_contract_test.go on what -race does to sync.Pool).
func TestWarmJobAllocations(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	payload := x.Emit()
	opts := qdmi.JobOptions{Shots: 16}
	for _, tc := range []struct {
		name    string
		submit  func(d *SimDevice) (qdmi.Job, error)
		ceiling float64
	}{
		// Measured 2026-10-19: 80, 83–87 under -race (81 while a run cloned
		// its measured bits; 82 while it allocated its one-element WorkerBusy
		// slice; 87 and 90–91 on
		// 2026-10-15; 89 while Prepare latched frames through a map of frame
		// clones; 105 before prepared programs and pooled scratch; 1,645 when
		// every job rebuilt the model and the dissipator allocated its
		// temporaries on every tick).
		{"text", func(d *SimDevice) (qdmi.Job, error) {
			return d.SubmitJobOpts(payload, qdmi.FormatQIRBase, opts)
		}, 97},
		// Measured 2026-10-19: 11, 15–19 under -race (12 and 16–17 while a
		// run cloned its measured bits; 13 and 18 while it allocated its
		// one-element WorkerBusy slice; 22 and 24–27 on
		// 2026-10-03, while a run built its shot sampler and generator and
		// a density copied its dimensions).
		{"module", func(d *SimDevice) (qdmi.Job, error) { return d.SubmitModule(x, opts) }, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := openSC(t, 1)
			job := func() {
				j, err := tc.submit(d)
				if err != nil {
					t.Fatal(err)
				}
				if st := j.Wait(context.Background()); st != qdmi.JobDone {
					t.Fatalf("job status %v", st)
				}
			}
			job() // builds the engine, fills its cache, prepares the module
			if n := testing.AllocsPerRun(50, job); n > tc.ceiling {
				t.Fatalf("warm job allocates %v objects, want ≤ %v", n, tc.ceiling)
			}
		})
	}
}

// TestJobRunsOnItsWaiter is the contract that the device has no thread of
// its own per job: a submitted job that nobody waits for stays queued and
// spawns nothing, and the first Wait is what runs it.
func TestJobRunsOnItsWaiter(t *testing.T) {
	d := openSC(t, 1)
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 16}
	runOpts(t, d, x, opts) // builds the engine
	before := runtime.NumGoroutine()
	job, err := d.SubmitModule(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := job.Status(); st != qdmi.JobQueued {
		t.Fatalf("job nobody waited for is %v, want still queued", st)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("submit grew the goroutine count from %d to %d", before, n)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		t.Fatalf("job status %v", st)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("the job left %d goroutines behind", n-before)
	}
}

// TestEngineTelemetryCounters: the metrics dump shows a warm device has
// stopped exponentiating — the second identical job adds cache hits and
// dissipator steps but no miss, fleet-wide and per device — and every job
// adds its plan's ticks by step kind to simq/ticks/<kind>.
func TestEngineTelemetryCounters(t *testing.T) {
	d := openSC(t, 1)
	reg := telemetry.NewRegistry()
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	counters := func() (hit, miss, steps int64) {
		runOpts(t, d, x, qdmi.JobOptions{Shots: 16, Telemetry: telemetry.NewTimeline("", reg)})
		for _, name := range []string{"simq/prop_cache/hit", "simq/prop_cache/miss", "simq/dissipator_steps"} {
			if all, dev := reg.Counter(name).Load(), reg.Counter(name+"/"+d.cfg.Name).Load(); all != dev {
				t.Fatalf("%s = %d but %s/%s = %d", name, all, name, d.cfg.Name, dev)
			}
		}
		return reg.Counter("simq/prop_cache/hit").Load(), reg.Counter("simq/prop_cache/miss").Load(),
			reg.Counter("simq/dissipator_steps").Load()
	}
	coldHit, coldMiss, coldSteps := counters()
	if coldMiss == 0 || coldSteps == 0 {
		t.Fatalf("cold job: %d misses, %d dissipator steps; want both positive", coldMiss, coldSteps)
	}
	ticks := func() (out [len(simq.StepKinds)]int64) {
		for k, kind := range simq.StepKinds {
			out[k] = reg.Counter("simq/ticks/" + kind).Load()
		}
		return out
	}
	coldTicks := ticks()
	hit, miss, steps := counters()
	if miss != coldMiss || hit <= coldHit || steps != 2*coldSteps {
		t.Fatalf("warm job: hits %d→%d, misses %d→%d, steps %d→%d; want more hits, no new miss, the same steps again",
			coldHit, hit, coldMiss, miss, coldSteps, steps)
	}
	// The one-site X job's Gaussian is varying ticks on the whole system;
	// every job of one program adds its plan's ticks again.
	if coldTicks[slices.Index(simq.StepKinds[:], "dense_tick")] == 0 {
		t.Fatalf("cold job: ticks by kind %v, want dense ticks", coldTicks)
	}
	for k, n := range ticks() {
		if n != 2*coldTicks[k] {
			t.Fatalf("simq/ticks/%s: %d after one job, %d after two", simq.StepKinds[k], coldTicks[k], n)
		}
	}
}
