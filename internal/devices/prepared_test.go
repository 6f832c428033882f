package devices

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/waveform"
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

// sweepTemplate lowers, against d, a template with an amplitude slot (a
// WaveformP played twice on the drive) and phase and frequency slots (an
// RZ(Sym) and a frame change that detunes the second play) — every slot a
// device binds into the template's prepared program — plus, with delay, a
// delay slot, which moves a duration, so each point runs as a module of its
// own. It returns the template's module and four points.
func sweepTemplate(t *testing.T, d *SimDevice, delay bool) (*qir.Module, []map[string]float64) {
	t.Helper()
	env, err := waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.2}.Materialize("env", 32)
	if err != nil {
		t.Fatal(err)
	}
	f0 := d.CalibratedFrequency(0)
	k := qpi.NewCircuit("sweep", 1, 1).
		WaveformP("env", env.Samples, qpi.Sym("amp")).
		PlayWaveform("q0-drive", "env").
		RZP(0, qpi.Sym("phi")).
		FrameChangeP("q0-drive", qpi.SymAffine("det", 1, f0), qpi.SymAffine("phi", 0.5, 0)).
		PlayWaveform("q0-drive", "env")
	params := []ptemplate.Param{
		{Name: "amp", Min: 0.05, Max: 1}, {Name: "phi", Min: -math.Pi, Max: math.Pi}, {Name: "det", Min: -4e6, Max: 4e6},
	}
	if delay {
		k.DelayP("q0-drive", qpi.Sym("wait"))
		params = append(params, ptemplate.Param{Name: "wait", Min: 0, Max: 64})
	}
	if err := k.Measure(0, 0).End(); err != nil {
		t.Fatal(err)
	}
	tpl, err := ptemplate.New(k, params...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ptemplate.Lower(tpl, d, d.Name())
	if err != nil {
		t.Fatal(err)
	}
	points := []map[string]float64{
		{"amp": 0.9, "phi": 0.3, "det": 2e6, "wait": 8},
		{"amp": 0.35, "phi": -2.5, "det": -3e6, "wait": 40},
		{"amp": 0.6, "phi": 1.7, "det": 0, "wait": 0},
		{"amp": 1, "phi": math.Pi, "det": 4e6, "wait": 64},
	}
	if !delay {
		for _, p := range points {
			delete(p, "wait")
		}
	}
	return c.Module, points
}

// overdrivenTemplate is a hand-written template whose base envelope peaks
// at 1.6, past full scale: legal, because its amplitude range scales it back
// inside. A device must never link the base shape itself.
func overdrivenTemplate() (*qir.Module, []map[string]float64) {
	return &qir.Module{
			ID: "overdriven", Profile: qir.ProfilePulse, EntryName: "overdriven",
			NumResults: 1, NumPorts: 2, PortNames: []string{"q0-drive", "q0-readout"},
			Waveforms: []qir.WaveformConst{{Name: "env", Samples: []complex128{0.4, 1.2, 1.6, 1.6, 1.2, 0.4, 0.2, 0.1}}},
			Body: []qir.Call{
				{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("env"), {Kind: qir.ArgF64, Expr: &qir.ParamExpr{Param: "amp", Scale: 1}}}},
				{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
				{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(96)}},
			},
		}, []map[string]float64{
			{"amp": 0.6}, {"amp": 0.25}, {"amp": 0.5}, {"amp": 0.1},
		}
}

// gateTemplate is a hand-written gate-level template: its slot is an rx
// angle, which goes through the device's gate lowering, so each point runs
// as a module of its own.
func gateTemplate() (*qir.Module, []map[string]float64) {
	return gateModule("rx", 1, 1, []qir.Call{
			{Callee: qir.GateIntrinsics["rx"], Args: []qir.Arg{{Kind: qir.ArgF64, Expr: &qir.ParamExpr{Param: "theta", Scale: 1}}, qir.QubitArg(0)}},
			mz(0, 0),
		}), []map[string]float64{
			{"theta": 0.4}, {"theta": 2.9}, {"theta": 1.5}, {"theta": math.Pi},
		}
}

// bind binds a point into a template the way a caller without the device's
// help does: a concrete module of its own.
func bind(t *testing.T, tpl *qir.Module, point map[string]float64) *qir.Module {
	t.Helper()
	m, err := tpl.Bind(point)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// withPoint returns opts carrying a sweep point.
func withPoint(opts qdmi.JobOptions, point map[string]float64) qdmi.JobOptions {
	opts.Bindings = point
	return opts
}

// TestPreparedMatchesUnprepared: a job that finds its module prepared
// returns, byte for byte, what the same job returns when the device has to
// link, resolve and prepare it — counts, IQ and raw traces, at every
// measurement level and 1 and 2 shot workers. Two identically seeded devices
// run the same job sequence; one is handed the same *qir.Module every time,
// the other a fresh deep copy per job. The same holds for sweep points: one
// device is handed the template and each point, and binds the point into the
// template's prepared program; the other is handed a deep copy of the module
// the point binds to.
func TestPreparedMatchesUnprepared(t *testing.T) {
	const jobs = 4
	bell := bellModule()
	inPlace, points := sweepTemplate(t, openSC(t, 2), false)
	withDelay, delayPoints := sweepTemplate(t, openSC(t, 2), true)
	overdriven, overdrivenPoints := overdrivenTemplate()
	gates, gatePoints := gateTemplate()
	templates := []struct {
		name    string
		mod     *qir.Module
		points  []map[string]float64
		entries int // store entries for the template after its points
	}{
		{"amplitude, phase and frequency slots", inPlace, points, 1},
		{"overdriven base", overdriven, overdrivenPoints, 1},
		{"with a delay slot", withDelay, delayPoints, 0},
		{"with a gate call", gates, gatePoints, 0},
	}
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		opts := qdmi.JobOptions{Shots: 48, MeasLevel: level}
		hit, miss := openSC(t, 2), openSC(t, 2)
		for i := 0; i < jobs; i++ {
			got := runModule(t, hit, bell, opts)
			want := runModule(t, miss, deepCopy(t, bell), opts)
			sameResult(t, level.String()+" job on a prepared module vs a fresh copy", got, want)
		}
		if n := preparedFor(hit, bell); n != 1 {
			t.Fatalf("%d prepared programs for one module presented %d times, want 1", n, jobs)
		}
		for _, tpl := range templates {
			for i, point := range tpl.points {
				got := runModule(t, hit, tpl.mod, withPoint(opts, point))
				want := runModule(t, miss, deepCopy(t, bind(t, tpl.mod, point)), opts)
				sameResult(t, fmt.Sprintf("%s: %s point %d bound by the device vs bound first", level, tpl.name, i), got, want)
			}
			if n := preparedFor(hit, tpl.mod); n != tpl.entries {
				t.Fatalf("%s: %d prepared programs for the template after %d points, want %d",
					tpl.name, n, len(tpl.points), tpl.entries)
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
// same state, not what the program prepared for the first job would. The
// same holds for a template's entry between two sweep points. A template's
// pulses were lowered at compile time, so of the visible moves only the
// calibrated π amplitude does not reach it: the link-time frames and the
// true physics do.
func TestPreparedProgramGoesStale(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	tpl, points := sweepTemplate(t, driftingSC(t), false)
	opts := qdmi.JobOptions{Shots: 4000}
	programs := []struct {
		name          string
		mod           *qir.Module
		first, second qdmi.JobOptions
		want          *qir.Module // what a device that binds nothing runs for second
		visible       func(move string) bool
	}{
		{"module", x, opts, opts, x, func(string) bool { return true }},
		{"template", tpl, withPoint(opts, points[0]), withPoint(opts, points[1]), bind(t, tpl, points[1]),
			func(move string) bool { return move != "SetCalibratedPiAmplitude" }},
	}
	for _, mv := range calibrationMoves {
		t.Run(mv.name, func(t *testing.T) {
			for _, p := range programs {
				warm := driftingSC(t)
				runModule(t, warm, p.mod, p.first)
				if err := mv.move(warm); err != nil {
					t.Fatal(err)
				}
				got := runModule(t, warm, p.mod, p.second)

				fresh := skipJobs(driftingSC(t), 1)
				if err := mv.move(fresh); err != nil {
					t.Fatal(err)
				}
				sameResult(t, p.name+": second job after "+mv.name+" vs a fresh device in the same state",
					got, runModule(t, fresh, deepCopy(t, p.want), opts))
				if n := preparedFor(warm, p.mod); n != 1 {
					t.Fatalf("%s: %d prepared programs, want the current one only", p.name, n)
				}

				// What a program kept across the move would have returned.
				stale := runModule(t, skipJobs(driftingSC(t), 1), p.want, opts)
				if visible := mv.visible && p.visible(mv.name); visible == reflect.DeepEqual(got.Counts, stale.Counts) {
					t.Fatalf("%s: visible=%v but counts after the move %v, without it %v",
						p.name, visible, got.Counts, stale.Counts)
				}
			}
		})
	}
}

// TestPreparedProgramUnderConcurrentMoves: two goroutines resubmit a module
// pointer and sweep a template while another walks through every
// calibration move; the race detector watches the store and the template's
// shared program, and once all are done the next job of each kind on the
// device matches a fresh device brought to the same state — however the
// moves interleaved with the look-ups, no stale program survived them.
func TestPreparedProgramUnderConcurrentMoves(t *testing.T) {
	testutil.AssertNoLeaks(t)
	const jobs, rounds = 40, 3
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	tpl, points := sweepTemplate(t, driftingSC(t), false)
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
	// submitAll runs jobs jobs of mod on d, the i-th with opts(i).
	submitAll := func(mod *qir.Module, opts func(i int) qdmi.JobOptions) {
		for i := 0; i < jobs; i++ {
			job, err := d.SubmitModule(mod, opts(i))
			if err != nil {
				t.Error(err)
				return
			}
			if st := job.Wait(t.Context()); st != qdmi.JobDone {
				t.Errorf("%s job %d: status %v", mod.ID, i, st)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		submitAll(x, func(int) qdmi.JobOptions { return opts })
	}()
	go func() {
		defer wg.Done()
		submitAll(tpl, func(i int) qdmi.JobOptions { return withPoint(opts, points[i%len(points)]) })
	}()
	go func() {
		defer wg.Done()
		moveAll(d)
	}()
	wg.Wait()

	fresh := skipJobs(driftingSC(t), 2*jobs)
	moveAll(fresh)
	final := qdmi.JobOptions{Shots: 2000}
	sameResult(t, "job after concurrent moves vs a fresh device moved the same way",
		runModule(t, d, x, final), runModule(t, fresh, deepCopy(t, x), final))
	sameResult(t, "sweep point after concurrent moves vs a fresh device moved the same way",
		runModule(t, d, tpl, withPoint(final, points[1])), runModule(t, fresh, deepCopy(t, bind(t, tpl, points[1])), final))
}

// TestPreparedStoreIsBounded: twice the store's capacity in one-shot
// modules pass through without growing it, and a module they pushed out is
// simply prepared again.
func TestPreparedStoreIsBounded(t *testing.T) {
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
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

// TestSweepKeepsOneEntry: a sweep leaves the store as it found it, plus at
// most the template's own entry. A template that binds in place keeps one
// entry however many points run; one whose points are one-shot modules (a
// delay slot, a gate call) keeps none, and a kernel prepared before the
// sweep is still prepared after it.
func TestSweepKeepsOneEntry(t *testing.T) {
	const points = 1024
	d := openSC(t, 1)
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	opts := qdmi.JobOptions{Shots: 1}
	runModule(t, d, x, opts)
	inPlace, _ := sweepTemplate(t, d, false)
	withDelay, _ := sweepTemplate(t, d, true)
	gates, _ := gateTemplate()
	for _, tc := range []struct {
		name    string
		tpl     *qir.Module
		point   func(f float64) map[string]float64
		entries int
	}{
		{"in place", inPlace, func(f float64) map[string]float64 {
			return map[string]float64{"amp": 0.05 + 0.95*f, "phi": math.Pi * (2*f - 1), "det": 1e6 * f}
		}, 1},
		{"delay slot", withDelay, func(f float64) map[string]float64 {
			return map[string]float64{"amp": 0.05 + 0.95*f, "phi": 0, "det": 0, "wait": 64 * f}
		}, 0},
		{"gate call", gates, func(f float64) map[string]float64 { return map[string]float64{"theta": math.Pi * f} }, 0},
	} {
		for i := 0; i < points; i++ {
			runModule(t, d, tc.tpl, withPoint(opts, tc.point(float64(i)/(points-1))))
		}
		if n := preparedFor(d, tc.tpl); n != tc.entries {
			t.Fatalf("%s: %d prepared programs for the template after a %d-point sweep, want %d", tc.name, n, points, tc.entries)
		}
		if n := preparedFor(d, x); n != 1 {
			t.Fatalf("%s: the kernel prepared before the sweep has %d prepared programs after it, want 1", tc.name, n)
		}
	}
}

// TestModuleVerifiedOncePerEntry: a module is verified by the link that
// builds its store entry, not per job. A malformed one — concrete or a
// template, presented once or again — fails its job with
// qdmi.ErrInvalidArgument before anything runs and never enters the store.
// A store hit is not verified again: the entry is the program verified when
// it was built, whatever was done to the module since (the ModuleSubmitter
// contract forbids changing a submitted module; this test breaks it on
// purpose to show that no per-job check is left).
func TestModuleVerifiedOncePerEntry(t *testing.T) {
	d := openSC(t, 1)
	opts := qdmi.JobOptions{Shots: 8}
	x := gateModule("x", 1, 1, []qir.Call{g1(qir.GateIntrinsics["x"], 0), mz(0, 0)})
	tpl, points := sweepTemplate(t, d, false)
	malformed := func(m *qir.Module) *qir.Module {
		bad := *m
		bad.Body = append([]qir.Call{{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("ghost"), qir.F64Arg(1)}}}, m.Body...)
		return &bad
	}

	// Miss: a malformed module never runs, however often it comes back.
	for _, c := range []struct {
		name string
		mod  *qir.Module
		opts qdmi.JobOptions
	}{
		{"module", malformed(x), opts},
		{"template", malformed(tpl), withPoint(opts, points[0])},
	} {
		for range 2 {
			job, err := d.SubmitModule(c.mod, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := job.Wait(t.Context()); st != qdmi.JobFailed {
				t.Fatalf("malformed %s: job %v, want failed", c.name, st)
			}
			if _, err := job.Result(); !errors.Is(err, qdmi.ErrInvalidArgument) {
				t.Fatalf("malformed %s: err = %v, want qdmi.ErrInvalidArgument", c.name, err)
			}
			if n := preparedFor(d, c.mod); n != 0 {
				t.Fatalf("malformed %s has %d prepared programs", c.name, n)
			}
		}
	}

	// Hit: the entry runs without a second look at the module.
	runModule(t, d, x, opts)
	runModule(t, d, tpl, withPoint(opts, points[0]))
	*x, *tpl = *malformed(x), *malformed(tpl)
	runModule(t, d, x, opts)
	runModule(t, d, tpl, withPoint(opts, points[1]))
}
