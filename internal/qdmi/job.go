package qdmi

import (
	"context"
	"fmt"
	"sync"
)

// AsyncJob is a reusable Job implementation. A device either completes it
// from a goroutine of its own (NewAsyncJob, then Start and Finish or Fail) or
// gives it the execution as a body (NewRunOnWaitJob) that the first Wait runs
// on the waiter's goroutine, so that nothing is spawned or woken per job. It
// also implements the optional RunningCanceller capability: device runtimes
// poll Aborted at execution checkpoints and drop the result of an aborted job.
type AsyncJob struct {
	id string

	mu     sync.Mutex
	status JobStatus
	result *Result
	err    error
	done   chan struct{}                    // closed when the job reaches a terminal state
	run    func(context.Context, *AsyncJob) // a run-on-wait job's body, until the first Wait takes it
}

// NewAsyncJob creates a job in the queued state, for a device to complete.
func NewAsyncJob(id string) *AsyncJob { return NewRunOnWaitJob(id, nil) }

// NewRunOnWaitJob creates a queued job that its first Wait runs: run is
// called on that waiter's goroutine with that waiter's ctx, and ends the job
// with Finish or Fail; returning without either — ctx fired, or Aborted
// turned true — ends it JobCancelled. Cancelled before any Wait, it never runs.
func NewRunOnWaitJob(id string, run func(ctx context.Context, j *AsyncJob)) *AsyncJob {
	return &AsyncJob{id: id, status: JobQueued, done: make(chan struct{}), run: run}
}

// ID implements Job.
func (j *AsyncJob) ID() string { return j.id }

// Status implements Job.
func (j *AsyncJob) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Start transitions queued → running. It returns false if the job was
// cancelled before execution began.
func (j *AsyncJob) Start() bool { return j.move(JobRunning, false, nil, nil) }

// Finish completes the job successfully. It is a no-op if the job already
// reached a terminal state (e.g. it was cancelled mid-flight).
func (j *AsyncJob) Finish(r *Result) { j.move(JobDone, true, r, nil) }

// Fail completes the job with an error. It is a no-op if the job already
// reached a terminal state.
func (j *AsyncJob) Fail(err error) { j.move(JobFailed, true, nil, err) }

// move is the job's one state transition: to st, from queued or — if started
// allows — from running, and never out of a terminal state. It reports
// whether the job moved.
func (j *AsyncJob) move(st JobStatus, started bool, r *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobQueued && !(started && j.status == JobRunning) {
		return false
	}
	j.status, j.result, j.err = st, r, err
	if st.Terminal() {
		close(j.done)
	}
	return true
}

// Wait implements Job: it blocks until the job reaches a terminal state or
// ctx is cancelled, and returns the status observed at return (which is
// non-terminal only if ctx fired first). The first Wait on a run-on-wait job
// runs it instead, under its own ctx — which, fired, aborts the job — and
// returns a terminal status. Every other Wait only waits.
func (j *AsyncJob) Wait(ctx context.Context) JobStatus {
	j.mu.Lock()
	run := j.run
	j.run = nil
	j.mu.Unlock()
	if run != nil && j.Start() {
		run(ctx, j)
		j.move(JobCancelled, true, nil, nil) // unless the body finished or failed it
		return j.Status()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.Status()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *AsyncJob) Done() <-chan struct{} { return j.done }

// Result implements Job.
func (j *AsyncJob) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case JobDone:
		return j.result, nil
	case JobFailed:
		return nil, j.err
	case JobCancelled:
		return nil, fmt.Errorf("%w: job %s", ErrCancelled, j.id)
	default:
		return nil, fmt.Errorf("%w: job %s has not finished", ErrInvalidArgument, j.id)
	}
}

// Cancel implements Job. Only queued jobs can be cancelled; use
// CancelRunning to abort a job that may already be executing.
func (j *AsyncJob) Cancel() error {
	if !j.move(JobCancelled, false, nil, nil) {
		return fmt.Errorf("%w: job %s is %s", ErrInvalidArgument, j.id, j.Status())
	}
	return nil
}

// CancelRunning implements the RunningCanceller capability: it aborts a
// queued or running job. The device runtime observes the transition through
// Aborted and discards any in-flight work.
func (j *AsyncJob) CancelRunning() error {
	if !j.move(JobCancelled, true, nil, nil) && !j.Aborted() {
		return fmt.Errorf("%w: job %s is %s", ErrInvalidArgument, j.id, j.Status())
	}
	return nil
}

// Aborted reports whether the job was cancelled; device execution loops
// poll it at checkpoints and abandon aborted work.
func (j *AsyncJob) Aborted() bool { return j.Status() == JobCancelled }
