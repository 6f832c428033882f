package qrm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/telemetry"
)

// Ticket tracks a submitted request through the queue and device. It is the
// scheduler's job handle: callers Wait on it with a context, poll Status,
// or Cancel it.
type Ticket struct {
	id       int64
	priority int
	seq      int64 // FIFO tiebreaker
	tag      string
	timeline *telemetry.Timeline // the job's trace; nil for untraced work

	// ctx is cancelled when the ticket is cancelled (explicitly or through
	// the submit context) or reaches a terminal state; the dispatch worker
	// waits on the device job under it.
	ctx       context.Context
	cancelCtx context.CancelFunc
	// stopCtxDone detaches onCtxDone from ctx, so that the worker's
	// resolution can release the context without running (and formatting an
	// error for) a cancellation nobody asked for. Only the worker reads it:
	// onCtxDone may already be running when newTicket stores it.
	stopCtxDone func() bool

	mu     sync.Mutex //mqss:lockrank 30
	status qdmi.JobStatus
	// dispatching is set once the worker commits to handing the job to the
	// device; from then on only the worker resolves the ticket.
	dispatching bool
	device      string // set at dispatch: the device the job was placed on
	result      *qdmi.Result
	err         error
	done        chan struct{} // closed when the ticket reaches a terminal state
}

func newTicket(ctx context.Context, id int64, prio int, seq int64, tag string, tl *telemetry.Timeline) *Ticket {
	tctx, tcancel := context.WithCancel(ctx)
	t := &Ticket{
		id: id, priority: prio, seq: seq, tag: tag, timeline: tl,
		ctx: tctx, cancelCtx: tcancel,
		status: qdmi.JobQueued,
		done:   make(chan struct{}),
	}
	// When the submit context (or an explicit Cancel) fires, resolve a
	// ticket the worker has not dispatched yet immediately, so waiters
	// unblock and the worker skips it. A dispatched ticket is resolved by
	// the worker, which waits on the device job under the same context.
	t.stopCtxDone = context.AfterFunc(tctx, t.onCtxDone)
	return t
}

// ID returns the scheduler-assigned job ID.
func (t *Ticket) ID() int64 { return t.id }

// Tag returns the caller label given at submission.
func (t *Ticket) Tag() string { return t.tag }

// Timeline returns the job's telemetry trace (the Request.Timeline it was
// submitted with), or nil for untraced work.
func (t *Ticket) Timeline() *telemetry.Timeline { return t.timeline }

// Status returns the ticket's lifecycle state without blocking.
func (t *Ticket) Status() qdmi.JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Device returns the name of the device the job was placed on: empty while
// the ticket is still queued, then the executing device — which, for
// pool-targeted or stolen work, may differ from the device named in the
// request.
func (t *Ticket) Device() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.device
}

// setDevice records the placement decision at dispatch time.
func (t *Ticket) setDevice(name string) {
	t.mu.Lock()
	t.device = name
	t.mu.Unlock()
}

// Cancel requests cancellation: a queued ticket resolves immediately and
// never reaches the device; a running ticket is aborted if the device job
// supports it. Cancel is idempotent and safe after completion.
func (t *Ticket) Cancel() { t.cancelCtx() }

// Wait blocks until the ticket reaches a terminal state or ctx is
// cancelled. A cancelled ctx abandons only this wait — the job keeps its
// place in the queue — and Wait returns ctx.Err().
func (t *Ticket) Wait(ctx context.Context) (*qdmi.Result, error) {
	select {
	case <-t.done:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.result, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Done reports whether the job has finished without blocking.
func (t *Ticket) Done() bool { return t.Status().Terminal() }

// DoneCh returns a channel closed when the ticket reaches a terminal
// state; use it to select over many tickets.
func (t *Ticket) DoneCh() <-chan struct{} { return t.done }

// onCtxDone resolves a not-yet-dispatched ticket when its context fires.
func (t *Ticket) onCtxDone() {
	t.resolve(nil, t.cancelErr(), qdmi.JobCancelled, false)
}

// cancelErr builds the cancellation error, attaching the context cause so
// a blown deadline is distinguishable from an explicit cancel.
func (t *Ticket) cancelErr() error {
	if cause := context.Cause(t.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return fmt.Errorf("qrm: job %d: %w (%v)", t.id, ErrCancelled, cause)
	}
	return fmt.Errorf("qrm: job %d: %w", t.id, ErrCancelled)
}

// startRunning transitions queued → running; false means the ticket was
// cancelled first and must not be dispatched.
func (t *Ticket) startRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != qdmi.JobQueued {
		return false
	}
	t.status = qdmi.JobRunning
	return true
}

// startDispatch commits the ticket to the device round trip: false means it
// resolved first (cancelled after leaving the queue) and must not be
// dispatched.
// Afterwards a fired context no longer resolves the ticket by itself — the
// worker sees it end the device wait and calls finish once the dispatch span
// is on the timeline, so no waiter wakes to a trace missing that span.
func (t *Ticket) startDispatch() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status.Terminal() {
		return false
	}
	t.dispatching = true
	return true
}

// finish is the worker's resolution of the ticket: it records the terminal
// state once; later calls are no-ops.
func (t *Ticket) finish(r *qdmi.Result, err error, status qdmi.JobStatus) {
	t.resolve(r, err, status, true)
}

// resolve records the terminal state once and releases the ticket's context
// resources. A resolution that does not come from the worker yields to a
// dispatch in progress.
func (t *Ticket) resolve(r *qdmi.Result, err error, status qdmi.JobStatus, worker bool) {
	t.mu.Lock()
	if t.status.Terminal() || (t.dispatching && !worker) {
		t.mu.Unlock()
		return
	}
	t.result, t.err, t.status = r, err, status
	close(t.done)
	t.mu.Unlock()
	if worker {
		t.stopCtxDone()
	}
	t.cancelCtx()
}
