package qrm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/telemetry"
)

// Ticket tracks a submitted request through the queue and device. It is the
// scheduler's job handle: callers Wait on it with a context, poll Status,
// or Cancel it.
//
// A ticket is also its own queue entry: the scheduler's heaps hold tickets.
type Ticket struct {
	id  int64 // rises with submission order: the FIFO tiebreaker
	req Request
	s   *Scheduler
	// dev is the device a device-targeted request names, pool the pool a
	// pool-targeted one names (each nil otherwise): where the job may run
	// without a steal.
	dev      *deviceState
	pool     *poolState
	enqueued time.Time // the queue-wait span's start
	// submitDone is the submit context's Done: a Wait under it, or under a
	// context that never ends, may run the job itself (Scheduler.claim).
	submitDone <-chan struct{}

	// ctx is the ticket's cancellation context: it fires when the ticket is
	// cancelled (explicitly, through the submit context or by
	// Request.Deadline), and the goroutine running the job waits on the
	// device job under it.
	ctx ticketCtx

	// state is the ticket's qdmi.JobStatus, changed only by move: queued →
	// running by the goroutine that takes the job (its device's worker or a
	// claiming waiter), queued → cancelled if ctx fires first, running →
	// terminal by that goroutine alone, which is thus the job's one writer
	// from dequeue to resolution, timeline included.
	state  atomic.Int32
	device atomic.Pointer[string] // the executing device's name, published at dispatch
	// result and err are written by the move to a terminal state, before
	// done closes.
	result *qdmi.Result
	err    error
	done   chan struct{} // closed when the ticket reaches a terminal state
}

// newTicket is req's ticket under the submit context ctx. Its context
// hooks onto ctx only when ctx can end, and arms a timer only for a
// request with a Deadline.
func newTicket(ctx context.Context, id int64, req *Request) *Ticket {
	t := &Ticket{id: id, req: *req, submitDone: ctx.Done(), done: make(chan struct{})}
	c := &t.ctx
	c.parent, c.deadline = ctx, req.Deadline
	if d, ok := ctx.Deadline(); ok && (c.deadline.IsZero() || d.Before(c.deadline)) {
		c.deadline = d // the submit context ends first: its hook fires the ticket
	} else if !c.deadline.IsZero() {
		c.timer = time.AfterFunc(time.Until(c.deadline), t.deadlineFired)
	}
	// When the submit context, an explicit Cancel or the deadline fires,
	// resolve a ticket nobody has taken yet immediately, so waiters unblock
	// and the scheduler skips it. A running ticket is resolved by the
	// goroutine running it, which checks the context before dispatch and
	// waits on the device job under it.
	if t.submitDone != nil {
		c.stopParent = context.AfterFunc(ctx, t.parentFired)
	}
	// A hook that cancelled the ticket before both were stored left
	// detaching them to this goroutine (onCtxDone).
	c.armed.Store(true)
	if t.Status() != qdmi.JobQueued {
		c.detach()
	}
	return t
}

// ID returns the scheduler-assigned job ID.
func (t *Ticket) ID() int64 { return t.id }

// Timeline returns the job's telemetry trace — the Request.Timeline it was
// submitted with, which the scheduler writes until the ticket resolves — or
// nil.
func (t *Ticket) Timeline() *telemetry.Timeline { return t.req.Timeline }

// Status returns the ticket's lifecycle state without blocking.
func (t *Ticket) Status() qdmi.JobStatus { return qdmi.JobStatus(t.state.Load()) }

// Device returns the name of the device the job was placed on: empty while
// the ticket is still queued, then the executing device — which, for
// pool-targeted or stolen work, may differ from the device named in the
// request.
func (t *Ticket) Device() string {
	if name := t.device.Load(); name != nil {
		return *name
	}
	return ""
}

// Cancel requests cancellation: a queued ticket resolves immediately and
// never reaches the device; a running ticket is aborted if the device job
// supports it. Cancel is idempotent and safe after completion.
func (t *Ticket) Cancel() { t.cancel(&endCancelled) }

// Wait blocks until the ticket reaches a terminal state or ctx is
// cancelled. A cancelled ctx abandons only this wait — the job keeps its
// place in the queue — and Wait returns ctx.Err().
//
// A job nobody is ahead of runs on the goroutine that waits for it: its
// device is idle and would take it next. Only a wait whose end cancels the
// job anyway runs it — under the submit context, or one that never ends.
func (t *Ticket) Wait(ctx context.Context) (*qdmi.Result, error) {
	if done := ctx.Done(); (done == nil || done == t.submitDone) && t.Status() == qdmi.JobQueued {
		t.s.claim(t)
	}
	select {
	case <-t.done:
		return t.result, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// cancel fires the ticket's context with end and resolves a ticket still
// queued; a ticket whose context fired already is left alone.
func (t *Ticket) cancel(end *ctxEnd) {
	if t.ctx.fire(end) {
		t.onCtxDone()
	}
}

// deadlineFired is Request.Deadline's timer.
func (t *Ticket) deadlineFired() { t.cancel(&endDeadline) }

// parentFired is the submit context's hook: the ticket ends as that
// context did, its cause included.
func (t *Ticket) parentFired() {
	p := t.ctx.parent
	t.cancel(&ctxEnd{err: p.Err(), cause: context.Cause(p)})
}

// onCtxDone resolves a ticket still queued when its context fires and
// detaches the hooks that did not fire — once newTicket has stored them.
func (t *Ticket) onCtxDone() {
	if t.Status() == qdmi.JobQueued && t.move(qdmi.JobQueued, qdmi.JobCancelled, nil, t.cancelErr()) && t.ctx.armed.Load() {
		t.ctx.detach()
	}
}

// cancelErr builds the cancellation error, wrapping the context's cause so a
// blown deadline is context.DeadlineExceeded as well as ErrCancelled.
func (t *Ticket) cancelErr() error {
	if end := t.ctx.end.Load(); end != nil && end.cause != nil && !errors.Is(end.cause, context.Canceled) {
		return fmt.Errorf("qrm: job %d: %w (%w)", t.id, ErrCancelled, end.cause)
	}
	return fmt.Errorf("qrm: job %d: %w", t.id, ErrCancelled)
}

// move is the ticket's one state transition: from → to, by compare-and-swap.
// The move to a terminal state stores the outcome and then closes done, so
// a woken waiter reads what its one winner wrote. It reports whether the
// ticket moved.
func (t *Ticket) move(from, to qdmi.JobStatus, r *qdmi.Result, err error) bool {
	if !t.state.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	if to.Terminal() {
		t.result, t.err = r, err
		close(t.done)
	}
	return true
}

// finish is the resolution of a running ticket by the goroutine that runs
// it. It detaches the submit context's hook and the deadline timer without
// firing the ticket's context, so a job that simply ends runs no
// cancellation nobody asked for.
func (t *Ticket) finish(r *qdmi.Result, err error, status qdmi.JobStatus) {
	t.move(qdmi.JobRunning, status, r, err)
	t.ctx.detach()
}
