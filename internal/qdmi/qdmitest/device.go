// Package qdmitest holds the stack's one QDMI test device and the contract
// every device is checked against. Device wraps a device, or fakes one
// (New), and its hooks record, hold, fail or refuse jobs, so a test that
// needs a device to misbehave in one way sets one hook instead of
// re-implementing the job lifecycle. Conformance is the table of what a
// qdmi.Device must do.
package qdmitest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/telemetry"
)

// ErrScripted is the failure of a job whose ID is a Device's FailOn.
var ErrScripted = errors.New("qdmitest: scripted failure")

// Submission is one job a Device accepted: the payload's text or the
// module's ID, the module (nil for a payload), and the job's trace.
type Submission struct {
	ID       string
	Module   *qir.Module
	Timeline *telemetry.Timeline
}

// Device is a conforming qdmi.Device for tests, with all three submit entry
// points. The embedded device answers every query and runs every job; the
// hooks, set before the device is registered, change what a job does. A
// held job can be cancelled, and then never runs on the embedded device.
type Device struct {
	qdmi.Device
	// Props overrides the answers to chosen device properties; an error
	// value is answered as the error.
	Props map[qdmi.DeviceProperty]any
	// FailOn fails, with ErrScripted, each job whose Submission.ID it is.
	FailOn string
	// SubmitErr, when set, refuses every submission with it.
	SubmitErr error
	// OffThread runs each job on a goroutine of its own from submit, which
	// records no spans; by default the job's first Wait runs it, on the
	// waiter's goroutine and under its ctx, as a SimDevice's does.
	OffThread bool
	// NoAbort hands out jobs without the qdmi.RunningCanceller capability.
	NoAbort bool

	mu            sync.Mutex
	subs          []Submission
	hold          func(Submission) <-chan struct{}
	running, peak int
}

// Wrap returns a test device around inner.
func Wrap(inner qdmi.Device) *Device { return &Device{Device: inner} }

// SetHold makes every job, as it starts, wait until a receive from
// hold(its submission) succeeds or the job is cancelled. hold runs on the
// goroutine that runs the job; a nil channel, or a nil hold, holds nothing.
func (d *Device) SetHold(hold func(Submission) <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hold = hold
}

// Submissions returns the jobs the device accepted, in submit order.
func (d *Device) Submissions() []Submission {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.subs)
}

// Peak returns the most jobs the device has run at once.
func (d *Device) Peak() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// QueryDeviceProperty implements qdmi.Device, answering from Props first.
func (d *Device) QueryDeviceProperty(p qdmi.DeviceProperty) (any, error) {
	if v, ok := d.Props[p]; ok {
		if err, isErr := v.(error); isErr {
			return nil, err
		}
		return v, nil
	}
	return d.Device.QueryDeviceProperty(p)
}

// SubmitJob implements qdmi.Device.
func (d *Device) SubmitJob(payload []byte, format qdmi.ProgramFormat, shots int) (qdmi.Job, error) {
	return d.submit(Submission{ID: string(payload)}, qdmi.JobOptions{Shots: shots},
		func(qdmi.JobOptions) (qdmi.Job, error) { return d.Device.SubmitJob(payload, format, shots) })
}

// SubmitJobOpts implements qdmi.AcquisitionSubmitter.
func (d *Device) SubmitJobOpts(payload []byte, format qdmi.ProgramFormat, opts qdmi.JobOptions) (qdmi.Job, error) {
	return d.submit(Submission{ID: string(payload), Timeline: opts.Telemetry}, opts,
		func(opts qdmi.JobOptions) (qdmi.Job, error) {
			if as, ok := d.Device.(qdmi.AcquisitionSubmitter); ok {
				return as.SubmitJobOpts(payload, format, opts)
			}
			return nil, fmt.Errorf("%w: %s takes no acquisition options", qdmi.ErrNotSupported, d.Name())
		})
}

// SubmitModule implements qdmi.ModuleSubmitter.
func (d *Device) SubmitModule(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if mod == nil {
		return nil, fmt.Errorf("%w: nil module", qdmi.ErrInvalidArgument)
	}
	return d.submit(Submission{ID: mod.ID, Module: mod, Timeline: opts.Telemetry}, opts,
		func(opts qdmi.JobOptions) (qdmi.Job, error) {
			if ms, ok := d.Device.(qdmi.ModuleSubmitter); ok {
				return ms.SubmitModule(mod, opts)
			}
			return nil, fmt.Errorf("%w: %s takes no modules", qdmi.ErrNotSupported, d.Name())
		})
}

// submit is the body of the three entry points: it refuses what SubmitErr
// refuses, hands the embedded device its job (which runs when the device's
// own job waits for it), records the submission, and returns the device's
// own job.
func (d *Device) submit(sub Submission, opts qdmi.JobOptions, forward func(qdmi.JobOptions) (qdmi.Job, error)) (qdmi.Job, error) {
	if d.SubmitErr != nil {
		return nil, d.SubmitErr
	}
	fwd := opts
	if d.OffThread {
		fwd.Telemetry = nil // a job on a thread of its own records no spans
	}
	inner, err := forward(fwd)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.subs = append(d.subs, sub)
	d.mu.Unlock()
	body := func(ctx context.Context, j *qdmi.AsyncJob) { d.run(ctx, j, sub, inner, opts.Telemetry.Registry()) }
	var job *qdmi.AsyncJob
	if d.OffThread {
		job = qdmi.NewAsyncJob(inner.ID())
		go func() {
			if job.Start() {
				//lint:mqssvet disable=ctxflow an off-thread job has no waiter; release or cancel ends it
				body(context.Background(), job)
				_ = job.CancelRunning() // a body that ended without a result was cancelled
			}
		}()
	} else {
		job = qdmi.NewRunOnWaitJob(inner.ID(), body)
	}
	if d.NoAbort {
		return struct{ qdmi.Job }{job}, nil // embedding the interface hides CancelRunning
	}
	return job, nil
}

// run is a job's body: it counts the jobs running at once, holds while
// SetHold says, and then fails the job (FailOn) or runs the embedded
// device's job to its end, counting a finished one as "qdmitest/finished"
// on the job's registry. Returning without a result — the ctx fired or the
// job was cancelled — ends the job JobCancelled.
func (d *Device) run(ctx context.Context, j *qdmi.AsyncJob, sub Submission, inner qdmi.Job, reg *telemetry.Registry) {
	d.mu.Lock()
	d.running++
	d.peak = max(d.peak, d.running)
	hold := d.hold
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.running--
		d.mu.Unlock()
	}()
	if hold != nil {
		if release := hold(sub); release != nil {
			select {
			case <-release:
			case <-ctx.Done():
			case <-j.Done():
			}
		}
	}
	switch {
	case ctx.Err() != nil || j.Aborted():
		abort(inner)
	case d.FailOn != "" && sub.ID == d.FailOn:
		j.Fail(ErrScripted)
	default:
		switch inner.Wait(ctx) {
		case qdmi.JobDone:
			res, _ := inner.Result()
			reg.Add("qdmitest/finished", 1)
			j.Finish(res)
		case qdmi.JobFailed:
			_, err := inner.Result()
			j.Fail(err)
		default:
			abort(inner)
		}
	}
}

// abort cancels the embedded device's job, running or not.
func abort(job qdmi.Job) {
	if rc, ok := job.(qdmi.RunningCanceller); ok {
		_ = rc.CancelRunning()
	} else {
		_ = job.Cancel()
	}
}
