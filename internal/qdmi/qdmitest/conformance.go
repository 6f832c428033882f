package qdmitest

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/telemetry"
)

// Program is a base-profile job every conforming device runs: x, then a
// measurement, on site 0.
const Program = `define void @conformance() #0 {
entry:
  call void @__quantum__qis__x__body(%Qubit* inttoptr (i64 0 to %Qubit*))
  call void @__quantum__qis__mz__body(%Qubit* inttoptr (i64 0 to %Qubit*), %Result* inttoptr (i64 0 to %Result*))
  ret void
}

attributes #0 = { "entry_point" "qir_profiles"="base" "required_num_qubits"="1" "required_num_results"="1" }
`

const shots = 16

// Conformance checks the QDMI contract on devices newDevice builds, a fresh
// one per row. The devices it checks run a job on its first Wait
// (qdmi.NewRunOnWaitJob), as every device of the stack does but a Device
// with OffThread set; they take FormatQIRBase text through SubmitJobOpts,
// hand out qdmi.RunningCanceller jobs and have a drive port on site 0.
func Conformance(t *testing.T, newDevice func(*testing.T) qdmi.Device) {
	for _, row := range []struct {
		name  string
		check func(*testing.T, qdmi.Device)
	}{
		{"lifecycle and ctx abort", lifecycle},
		{"Cancel or CancelRunning before the first Wait never runs the body", cancelBeforeWait},
		{"a body never starts after an early cancel", noBodyAfterCancel},
		{"CancelRunning of a held, running job ends it and records nothing", cancelWhileHeld},
		{"epoch rises with every calibration write", epochRises},
		{"DefaultPulse hands out copies", pulseCopies},
		{"unknown ops and sites fail typed", typedErrors},
		{"NewTarget answers what direct queries answer", targetAgrees},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, newDevice(t)) })
	}
}

// submit hands dev the conformance program, traced on tl.
func submit(t *testing.T, dev qdmi.Device, tl *telemetry.Timeline) qdmi.Job {
	t.Helper()
	job, err := dev.(qdmi.AcquisitionSubmitter).SubmitJobOpts([]byte(Program), qdmi.FormatQIRBase,
		qdmi.JobOptions{Shots: shots, Telemetry: tl})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// lifecycle: a format the device does not list is refused; a submitted job
// is queued with a unique ID and no result until its first Wait ends it
// JobDone with every shot counted; terminal is final; and a job whose first
// Wait's ctx has ended is aborted, JobCancelled.
func lifecycle(t *testing.T, dev qdmi.Device) {
	if _, err := dev.SubmitJob([]byte(Program), "qdmitest-unknown", shots); !errors.Is(err, qdmi.ErrNotSupported) {
		t.Errorf("unlisted format: err = %v, want ErrNotSupported", err)
	}
	a, b := submit(t, dev, nil), submit(t, dev, nil)
	if a.ID() == "" || a.ID() == b.ID() {
		t.Errorf("job IDs %q and %q, want distinct and non-empty", a.ID(), b.ID())
	}
	if _, err := a.Result(); a.Status() != qdmi.JobQueued || !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("before its first Wait: %v, %v; want queued, ErrInvalidArgument", a.Status(), err)
	}
	if st := a.Wait(t.Context()); st != qdmi.JobDone {
		t.Fatalf("first Wait: %v, want done", st)
	}
	res, err := a.Result()
	n := 0
	for _, c := range res.Counts {
		n += c
	}
	if err != nil || res.Shots != shots || n != shots {
		t.Fatalf("result %d shots, %d counts, %v; want %d", res.Shots, n, err, shots)
	}
	if a.Cancel() == nil || a.(qdmi.RunningCanceller).CancelRunning() == nil || a.Wait(t.Context()) != qdmi.JobDone {
		t.Fatal("a done job accepted a cancel or left JobDone")
	}
	ended, cancel := context.WithCancel(t.Context())
	cancel()
	if st := b.Wait(ended); st != qdmi.JobCancelled || b.Wait(t.Context()) != qdmi.JobCancelled {
		t.Fatalf("first Wait under an ended ctx: %v, want cancelled", st)
	}
}

// cancelBeforeWait: Cancel or CancelRunning of a job no one has waited for
// ends it JobCancelled, and its body never runs: the device records nothing
// on the job's trace.
func cancelBeforeWait(t *testing.T, dev qdmi.Device) {
	for name, cancel := range map[string]func(qdmi.Job) error{
		"Cancel":        qdmi.Job.Cancel,
		"CancelRunning": func(j qdmi.Job) error { return j.(qdmi.RunningCanceller).CancelRunning() },
	} {
		reg := telemetry.NewRegistry()
		tl := telemetry.NewTimeline("", reg)
		j := submit(t, dev, tl)
		if err := cancel(j); err != nil {
			t.Fatalf("%s of a queued job: %v", name, err)
		}
		if st := j.Wait(t.Context()); st != qdmi.JobCancelled {
			t.Fatalf("%s, then Wait: %v, want cancelled", name, st)
		}
		if _, err := j.Result(); !errors.Is(err, qdmi.ErrCancelled) {
			t.Fatalf("%s: Result err = %v, want ErrCancelled", name, err)
		}
		if spans, counters := tl.Spans(), reg.Snapshot().Counters; len(spans) != 0 || len(counters) != 0 {
			t.Fatalf("%s before the first Wait: the body ran (%d spans, counters %v)", name, len(spans), counters)
		}
	}
}

// probeCtx is a waiter's ctx that sees its job's body: a body polls Err
// to notice an abort, and a Wait that only waits never calls it. onPoll,
// when set, runs at the first poll, holding the body there.
type probeCtx struct {
	context.Context
	polls  atomic.Int32
	onPoll func()
}

func (c *probeCtx) Err() error {
	if c.polls.Add(1) == 1 && c.onPoll != nil {
		c.onPoll()
	}
	return c.Context.Err()
}

// noBodyAfterCancel: a job cancelled before its first Wait is over; that
// Wait only waits, and no body starts, so nothing polls the waiter's ctx.
func noBodyAfterCancel(t *testing.T, dev qdmi.Device) {
	for name, cancel := range map[string]func(qdmi.Job) error{
		"Cancel":        qdmi.Job.Cancel,
		"CancelRunning": func(j qdmi.Job) error { return j.(qdmi.RunningCanceller).CancelRunning() },
	} {
		j := submit(t, dev, nil)
		if err := cancel(j); err != nil {
			t.Fatalf("%s of a queued job: %v", name, err)
		}
		ctx := &probeCtx{Context: t.Context()}
		if st := j.Wait(ctx); st != qdmi.JobCancelled || ctx.polls.Load() != 0 {
			t.Fatalf("%s, then Wait: %v, and a body polled the waiter's ctx %d times; want cancelled, none",
				name, st, ctx.polls.Load())
		}
	}
}

// cancelWhileHeld: a job held running in its body's first poll of the
// waiter's ctx is aborted there by CancelRunning; the body, going on, sees
// the abort, and the job ends JobCancelled with no result and nothing
// recorded on its trace.
func cancelWhileHeld(t *testing.T, dev qdmi.Device) {
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("", reg)
	j := submit(t, dev, tl)
	var held qdmi.JobStatus
	var err error
	ctx := &probeCtx{Context: t.Context(), onPoll: func() {
		held = j.Status()
		err = j.(qdmi.RunningCanceller).CancelRunning()
	}}
	if st := j.Wait(ctx); held != qdmi.JobRunning || err != nil || st != qdmi.JobCancelled {
		t.Fatalf("CancelRunning of a job held %v in its body: %v, then Wait %v; want running, nil, cancelled", held, err, st)
	}
	if _, err := j.Result(); !errors.Is(err, qdmi.ErrCancelled) {
		t.Fatalf("Result err = %v, want ErrCancelled", err)
	}
	if spans, counters := tl.Spans(), reg.Snapshot().Counters; len(spans) != 0 || len(counters) != 0 {
		t.Fatalf("an aborted body recorded %d spans, counters %v", len(spans), counters)
	}
}

// installed is a calibration write every device with a drive port on site
// 0 accepts.
func installed(phase float64) *qdmi.PulseImpl {
	return &qdmi.PulseImpl{Operation: "conformance", Steps: []qdmi.PulseStep{
		{Kind: "shift_phase", PortRole: "drive0", PhaseRad: phase},
	}}
}

// epochRises: every SetPulseImpl raises the calibration epoch; a rejected
// one, and reads, leave it alone.
func epochRises(t *testing.T, dev qdmi.Device) {
	epoch := func() int64 {
		t.Helper()
		e, err := qdmi.QueryCalibrationEpoch(dev)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	last := epoch()
	for i := range 2 {
		if err := dev.SetPulseImpl("conformance", []int{0}, installed(float64(i))); err != nil {
			t.Fatal(err)
		}
		if e := epoch(); e <= last {
			t.Fatalf("epoch %d after a calibration write, was %d", e, last)
		}
		last = epoch()
	}
	for _, impl := range []*qdmi.PulseImpl{
		{Operation: "conformance"},
		{Operation: "conformance", Steps: []qdmi.PulseStep{{Kind: "shift_phase", PortRole: "flux0"}}},
	} {
		if err := dev.SetPulseImpl("conformance", []int{0}, impl); !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Errorf("%+v: err = %v, want ErrInvalidArgument", impl, err)
		}
	}
	if _, err := dev.DefaultPulse("conformance", []int{0}); err != nil || epoch() != last {
		t.Fatalf("epoch moved from %d to %d without a calibration write (%v)", last, epoch(), err)
	}
}

// pulseCopies: an installed operation is listed, and what DefaultPulse
// returns is the caller's — editing it, or the implementation handed to
// SetPulseImpl, changes no later answer.
func pulseCopies(t *testing.T, dev qdmi.Device) {
	impl := installed(0.25)
	if err := dev.SetPulseImpl("conformance", []int{0}, impl); err != nil {
		t.Fatal(err)
	}
	impl.Steps[0].PhaseRad = 9
	found := false
	for _, op := range dev.Operations() {
		got, err := dev.DefaultPulse(op, []int{0})
		if err != nil {
			continue
		}
		want := got.Clone()
		for i := range got.Steps {
			got.Steps[i].PhaseRad++
			if w := got.Steps[i].Waveform; w != nil {
				for k := range w.Samples {
					w.Samples[k]++
				}
			}
		}
		if again, err := dev.DefaultPulse(op, []int{0}); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("%s on site 0 after the caller edited its copy: %+v, %v; want %+v", op, again, err, want)
		}
		if op == "conformance" {
			found = true
			if want.Operation != op || want.Steps[0].PhaseRad != 0.25 {
				t.Fatalf("the installed pulse is %q with phase %g, want %q with 0.25 despite the caller's edit", want.Operation, want.Steps[0].PhaseRad, op)
			}
		}
	}
	if !found {
		t.Fatalf("Operations %v omit the installed operation", dev.Operations())
	}
}

// typedErrors: asking about an operation the device lacks, or about a site
// or site tuple it lacks, fails with ErrNotSupported or ErrInvalidArgument.
func typedErrors(t *testing.T, dev qdmi.Device) {
	n := dev.NumSites()
	for name, err := range map[string]error{
		"DefaultPulse of an unknown op":   errOf(dev.DefaultPulse("qdmitest-none", []int{0})),
		"property of an unknown op":       errOf(dev.QueryOperationProperty("qdmitest-none", []int{0}, qdmi.OpPropDurationSeconds)),
		"DefaultPulse past the last site": errOf(dev.DefaultPulse("x", []int{n})),
		"DefaultPulse of site -1":         errOf(dev.DefaultPulse("x", []int{-1})),
		"op property past the last site":  errOf(dev.QueryOperationProperty("x", []int{n}, qdmi.OpPropDurationSeconds)),
		"site property past the last":     errOf(dev.QuerySiteProperty(n, qdmi.SitePropFrequencyHz)),
		"site property of site -1":        errOf(dev.QuerySiteProperty(-1, qdmi.SitePropFrequencyHz)),
		"unknown port":                    errOf(dev.QueryPortProperty("qdmitest-none", qdmi.PortPropKind)),
		"SetPulseImpl past the last site": dev.SetPulseImpl("conformance", []int{n}, installed(0)),
	} {
		if !errors.Is(err, qdmi.ErrNotSupported) && !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Errorf("%s: err = %v, want ErrNotSupported or ErrInvalidArgument", name, err)
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

// targetAgrees: a qdmi.Target read of the device answers what the device
// answers directly — epoch, ports by ID and a site's drive, waveform
// constraints, and the calibrated pulse of every operation on site 0.
func targetAgrees(t *testing.T, dev qdmi.Device) {
	if err := dev.SetPulseImpl("conformance", []int{0}, installed(0.5)); err != nil {
		t.Fatal(err)
	}
	tg := qdmi.NewTarget(dev)
	if e, err := tg.Epoch(); err != nil || e != valueOf(qdmi.QueryCalibrationEpoch(dev)) {
		t.Errorf("target epoch %d, %v; device %d", e, err, valueOf(qdmi.QueryCalibrationEpoch(dev)))
	}
	drives := map[int]*pulse.Port{}
	for _, p := range dev.Ports() {
		if kind, err := dev.QueryPortProperty(p.ID, qdmi.PortPropKind); err != nil || kind != p.Kind || tg.Port(p.ID) != p {
			t.Errorf("port %q: kind %v, %v; target %+v; Ports() says %+v", p.ID, kind, err, tg.Port(p.ID), p)
		}
		if p.Kind == pulse.PortDrive && len(p.Sites) == 1 {
			drives[p.Sites[0]] = p
		}
	}
	for s := -1; s <= dev.NumSites(); s++ {
		if tg.Drive(s) != drives[s] {
			t.Errorf("target drive of site %d = %+v, device %+v", s, tg.Drive(s), drives[s])
		}
	}
	for prop, got := range map[qdmi.DeviceProperty]int{
		qdmi.DevicePropGranularity: tg.Granularity, qdmi.DevicePropMinPulseSamples: tg.MinSamples, qdmi.DevicePropMaxPulseSamples: tg.MaxSamples,
	} {
		want, _ := qdmi.QueryInt(dev, prop)
		if prop == qdmi.DevicePropGranularity {
			want = max(want, 1)
		}
		if got != want {
			t.Errorf("target constraint %d = %d, device answers %d", prop, got, want)
		}
	}
	for _, op := range dev.Operations() {
		want, werr := dev.DefaultPulse(op, []int{0})
		if got, err := tg.Pulse(op, 0); (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("target pulse %s on site 0 = %+v, %v; device %+v, %v", op, got, err, want, werr)
		}
	}
}

func valueOf[T any](v T, _ error) T { return v }
