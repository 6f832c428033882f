package qrm

import (
	"context"
	"sync/atomic"
	"time"
)

// ticketCtx is a ticket's cancellation context, a field of the Ticket
// rather than a context.WithCancel child plus a context.AfterFunc
// registration: a ticket whose submit context can never end and whose
// request has no deadline builds no machinery at all. It fires once —
// through Ticket.Cancel, Request.Deadline's timer or the submit context's
// hook — and is not fired by a job that simply ends (Ticket.finish only
// detaches the hooks).
//
// It holds no mutex: its end, Done channel and AfterFunc list are each one
// atomic word. The AfterFunc method lets a context derived from it
// (context.WithCancel, context.AfterFunc) register with it instead of
// starting a goroutine that waits on Done.
type ticketCtx struct {
	parent   context.Context // the submit context: Value, and the end it passes on
	deadline time.Time       // the earlier of Request.Deadline and the parent's

	end   atomic.Pointer[ctxEnd]  // nil until fired
	done  atomic.Value            // chan struct{}: made by the first Done, closedDone once fired
	hooks atomic.Pointer[ctxHook] // AfterFunc registrations; &firedHooks once fired

	// stopParent detaches the submit context's hook (nil when it has none)
	// and timer is Request.Deadline's (nil when it has none). newTicket
	// stores both before armed; a hook that fires earlier reads neither.
	stopParent func() bool
	timer      *time.Timer
	armed      atomic.Bool
}

// ctxEnd is how a ticket's context ended: Err's value and the cause the
// cancellation error wraps.
type ctxEnd struct{ err, cause error }

var (
	endCancelled = ctxEnd{err: context.Canceled, cause: context.Canceled}
	endDeadline  = ctxEnd{err: context.DeadlineExceeded, cause: context.DeadlineExceeded}
	// closedDone is every fired context's Done channel that no caller asked
	// for before it fired.
	closedDone = make(chan struct{})
	// firedHooks marks a fired context's hook list: a registration that
	// finds it runs at once.
	firedHooks ctxHook
)

func init() { close(closedDone) }

// ctxHook is one AfterFunc registration.
type ctxHook struct {
	f     func()
	next  *ctxHook
	state atomic.Int32 // hookArmed, then hookRan or hookStopped
}

const (
	hookArmed int32 = iota
	hookRan
	hookStopped
)

// stop is the function AfterFunc returns: it reports whether it kept f
// from running.
func (h *ctxHook) stop() bool { return h.state.CompareAndSwap(hookArmed, hookStopped) }

// Deadline implements context.Context.
func (c *ticketCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

// Done implements context.Context. The channel is made on the first call.
func (c *ticketCtx) Done() <-chan struct{} {
	if ch, _ := c.done.Load().(chan struct{}); ch != nil {
		return ch
	}
	ch := make(chan struct{})
	if c.done.CompareAndSwap(nil, ch) {
		return ch
	}
	return c.done.Load().(chan struct{}) // fired, or another caller made it
}

// Err implements context.Context.
func (c *ticketCtx) Err() error {
	if end := c.end.Load(); end != nil {
		return end.err
	}
	return nil
}

// Value implements context.Context: the submit context's values.
func (c *ticketCtx) Value(key any) any { return c.parent.Value(key) }

// AfterFunc arranges for f to run once the context fires, as
// context.AfterFunc does, and returns the function that stops it. On a
// context that fired already f runs in its own goroutine (a timer's): a
// caller may hold a lock f takes.
func (c *ticketCtx) AfterFunc(f func()) (stop func() bool) {
	h := &ctxHook{f: f}
	for {
		head := c.hooks.Load()
		if head == &firedHooks {
			time.AfterFunc(0, f)
			return func() bool { return false }
		}
		h.next = head
		if c.hooks.CompareAndSwap(head, h) {
			return h.stop
		}
	}
}

// fire ends the context with end, closes Done and runs the registered
// hooks on the calling goroutine. It reports whether this call fired it.
func (c *ticketCtx) fire(end *ctxEnd) bool {
	if !c.end.CompareAndSwap(nil, end) {
		return false
	}
	if ch, _ := c.done.Swap(closedDone).(chan struct{}); ch != nil {
		close(ch)
	}
	for h := c.hooks.Swap(&firedHooks); h != nil; h = h.next {
		if h.state.CompareAndSwap(hookArmed, hookRan) {
			h.f()
		}
	}
	return true
}

// detach disarms the submit context's hook and the deadline timer. It is
// safe to call more than once and from the hooks themselves.
func (c *ticketCtx) detach() {
	if c.stopParent != nil {
		c.stopParent()
	}
	if c.timer != nil {
		c.timer.Stop()
	}
}
