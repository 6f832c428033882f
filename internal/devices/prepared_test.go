package devices

import (
	"reflect"
	"sync"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/testutil"
)

// runModule executes a module through SubmitModule — the entry that keeps
// the caller's pointer, and so the one that can find a prepared program.
func runModule(t *testing.T, d *SimDevice, m *qir.Module, opts qdmi.JobOptions) *qdmi.Result {
	t.Helper()
	job, err := d.SubmitModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return waitResult(t, job)
}

// waitResult waits for a submitted job to finish and returns its result.
func waitResult(t *testing.T, job qdmi.Job) *qdmi.Result {
	t.Helper()
	if st := job.Wait(t.Context()); st != qdmi.JobDone {
		t.Fatalf("job status %v", st)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// deepCopy returns a module equal to m that shares nothing with it, so a
// device that has prepared m has to prepare the copy from scratch.
func deepCopy(t *testing.T, m *qir.Module) *qir.Module {
	t.Helper()
	c, err := qir.ParseModule(string(m.Emit()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// preparedFor counts the store's entries for a module.
func preparedFor(d *SimDevice, m *qir.Module) (n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.programs {
		if p.mod == m {
			n++
		}
	}
	return n
}

func sameResult(t *testing.T, what string, got, want *qdmi.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %v %v\nwant %v %v", what, got.Counts, got.IQ, want.Counts, want.IQ)
	}
}

// TestPreparedMatchesUnprepared: a job that finds its module prepared
// returns, byte for byte, what the same job returns when the device has to
// link, resolve and prepare it — counts, IQ and raw traces, at every
// measurement level and 1 and 2 shot workers. Two identically seeded devices
// run the same job sequence; one is handed the same *qir.Module every time,
// the other a fresh deep copy per job.
func TestPreparedMatchesUnprepared(t *testing.T) {
	const jobs = 4
	bell := bellModule()
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		for _, workers := range []int{1, 2} {
			opts := qdmi.JobOptions{Shots: 48, MeasLevel: level, ShotWorkers: workers}
			hit, miss := openSC(t, 2), openSC(t, 2)
			for i := 0; i < jobs; i++ {
				got := runModule(t, hit, bell, opts)
				want := runModule(t, miss, deepCopy(t, bell), opts)
				sameResult(t, level.String()+" job on a prepared module vs a fresh copy", got, want)
			}
			if n := preparedFor(hit, bell); n != 1 {
				t.Fatalf("%d prepared programs for one module presented %d times, want 1", n, jobs)
			}
		}
	}
}

// driftingSC is openSC(1) with drift large enough (10% amplitude, MHz
// detuning) that a program prepared before AdvanceTime cannot pass for one
// prepared after it.
func driftingSC(t *testing.T) *SimDevice {
	t.Helper()
	cfg := openSC(t, 1).cfg
	cfg.Drift = DriftConfig{FreqSigmaHz: 2e6, FreqTauSeconds: 60, AmpSigma: 0.1, AmpTauSeconds: 60}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// calibrationMoves are the five ways a device's calibration or true physics
// can move under a prepared program. `visible` marks the ones that change
// what an X+Measure job returns (the believed readout fidelity and an
// installed pulse implementation bump the epoch but reach no job's physics).
var calibrationMoves = []struct {
	name    string
	move    func(d *SimDevice) error
	visible bool
}{
	{"AdvanceTime", func(d *SimDevice) error { d.AdvanceTime(600); return nil }, true},
	{"SetCalibratedReadoutFidelity", func(d *SimDevice) error {
		d.SetCalibratedReadoutFidelity(0, 0.9)
		return nil
	}, false},
	{"SetPulseImpl", func(d *SimDevice) error {
		return d.SetPulseImpl("mygate", []int{0}, &qdmi.PulseImpl{Operation: "mygate", Steps: []qdmi.PulseStep{
			{Kind: "shift_phase", PortRole: "drive0", PhaseRad: 0.1},
		}})
	}, false},
	{"SetCalibratedFrequency", func(d *SimDevice) error {
		d.SetCalibratedFrequency(0, d.CalibratedFrequency(0)+4e6)
		return nil
	}, true},
	{"SetCalibratedPiAmplitude", func(d *SimDevice) error {
		d.SetCalibratedPiAmplitude(0, d.CalibratedPiAmplitude(0)*0.7)
		return nil
	}, true},
}

// TestPreparedProgramGoesStale: between two submissions of the same module
// pointer the device's calibration or true physics moves; the second job
// must return what a device that never prepared anything returns in the
// same state, not what the program prepared for the first job would.
func TestPreparedProgramGoesStale(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.IntrX, 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 4000}
	for _, mv := range calibrationMoves {
		t.Run(mv.name, func(t *testing.T) {
			warm := driftingSC(t)
			runModule(t, warm, x, opts)
			if err := mv.move(warm); err != nil {
				t.Fatal(err)
			}
			got := runModule(t, warm, x, opts)

			fresh := skipJobs(driftingSC(t), 1)
			if err := mv.move(fresh); err != nil {
				t.Fatal(err)
			}
			sameResult(t, "second job after "+mv.name+" vs a fresh device in the same state",
				got, runModule(t, fresh, deepCopy(t, x), opts))
			if n := preparedFor(warm, x); n != 1 {
				t.Fatalf("%d prepared programs for the module, want the current one only", n)
			}

			// What a program kept across the move would have returned.
			stale := runModule(t, skipJobs(driftingSC(t), 1), x, opts)
			if mv.visible == reflect.DeepEqual(got.Counts, stale.Counts) {
				t.Fatalf("visible=%v but counts after the move %v, without it %v", mv.visible, got.Counts, stale.Counts)
			}
		})
	}
}

// TestPreparedProgramUnderConcurrentMoves: one goroutine resubmits a module
// pointer while another walks through every calibration move; the race
// detector watches the store, and once both are done the next job on the
// device matches a fresh device brought to the same state — however the
// moves interleaved with the look-ups, no stale program survived them.
func TestPreparedProgramUnderConcurrentMoves(t *testing.T) {
	testutil.AssertNoLeaks(t)
	const jobs, rounds = 40, 3
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.IntrX, 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 8}
	moveAll := func(d *SimDevice) {
		for r := 0; r < rounds; r++ {
			for _, mv := range calibrationMoves {
				if err := mv.move(d); err != nil {
					t.Error(err)
				}
			}
		}
	}

	d := driftingSC(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < jobs; i++ {
			job, err := d.SubmitModule(x, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if st := job.Wait(t.Context()); st != qdmi.JobDone {
				t.Errorf("job %d: status %v", i, st)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		moveAll(d)
	}()
	wg.Wait()

	fresh := skipJobs(driftingSC(t), jobs)
	moveAll(fresh)
	final := qdmi.JobOptions{Shots: 2000}
	sameResult(t, "job after concurrent moves vs a fresh device moved the same way",
		runModule(t, d, x, final), runModule(t, fresh, deepCopy(t, x), final))
}

// TestPreparedStoreIsBounded: twice the store's capacity in one-shot
// modules pass through without growing it, and a module they pushed out is
// simply prepared again.
func TestPreparedStoreIsBounded(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.IntrX, 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 32}
	d := openSC(t, 1)
	first := runModule(t, d, x, opts)
	for i := 0; i < 2*preparedCap; i++ {
		runModule(t, d, deepCopy(t, x), opts)
	}
	if n := preparedFor(d, x); n != 0 {
		t.Fatalf("module still prepared after %d others went through a store of %d", 2*preparedCap, preparedCap)
	}
	d.mu.Lock()
	d.jobRng.Seed(d.cfg.Seed + 2) // replay the job stream from its first seed
	d.mu.Unlock()
	sameResult(t, "evicted module, prepared again, same seed", runModule(t, d, x, opts), first)
	if n := preparedFor(d, x); n != 1 {
		t.Fatalf("%d prepared programs for the resubmitted module, want 1", n)
	}
}
