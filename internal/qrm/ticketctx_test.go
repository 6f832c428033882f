package qrm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/testutil"
)

// TestTicketContext is the contract of a ticket's own context: its
// deadline is the earlier of the request's and the submit context's; it
// ends DeadlineExceeded when either passes and Canceled on Cancel or a
// parent cancel; a parent's cause reaches the ErrCancelled wrap; values
// pass through; and a context derived from it registers with it instead
// of starting a goroutine, and ends with it.
func TestTicketContext(t *testing.T) {
	testutil.AssertNoLeaks(t)
	type key struct{}
	errQuota := errors.New("tenant over quota")
	now := time.Now()
	soon, later := now.Add(time.Hour), now.Add(2*time.Hour)
	cases := []struct {
		name string
		// parent derives the submit context from base; cancel, when not
		// nil, ends it with a cause.
		parent   func(base context.Context) (context.Context, context.CancelCauseFunc)
		deadline time.Time // Request.Deadline
		end      func(tk *Ticket, cancel context.CancelCauseFunc)
		wantDL   time.Time // zero: no deadline
		wantErr  error     // Err once ended; nil: never ends
		wrapped  error     // what the cancellation error wraps besides ErrCancelled
	}{
		{name: "background, no deadline", wantDL: time.Time{}},
		{name: "request deadline", deadline: soon, wantDL: soon},
		{name: "submit deadline only",
			parent: func(b context.Context) (context.Context, context.CancelCauseFunc) {
				return withDeadlineCause(b, soon)
			},
			wantDL: soon},
		{name: "submit deadline earlier", deadline: later,
			parent: func(b context.Context) (context.Context, context.CancelCauseFunc) {
				return withDeadlineCause(b, soon)
			},
			wantDL: soon},
		{name: "request deadline earlier", deadline: soon,
			parent: func(b context.Context) (context.Context, context.CancelCauseFunc) {
				return withDeadlineCause(b, later)
			},
			wantDL: soon},
		{name: "request deadline passes", deadline: now.Add(20 * time.Millisecond),
			wantDL: now.Add(20 * time.Millisecond), wantErr: context.DeadlineExceeded, wrapped: context.DeadlineExceeded},
		{name: "submit deadline passes",
			parent: func(b context.Context) (context.Context, context.CancelCauseFunc) {
				return withDeadlineCause(b, now.Add(20*time.Millisecond))
			},
			wantDL: now.Add(20 * time.Millisecond), wantErr: context.DeadlineExceeded, wrapped: context.DeadlineExceeded},
		{name: "Cancel", deadline: soon,
			end:    func(tk *Ticket, _ context.CancelCauseFunc) { tk.Cancel() },
			wantDL: soon, wantErr: context.Canceled},
		{name: "parent cancel",
			parent:  context.WithCancelCause,
			end:     func(_ *Ticket, cancel context.CancelCauseFunc) { cancel(nil) },
			wantErr: context.Canceled},
		{name: "parent cancel with a cause",
			parent:  context.WithCancelCause,
			end:     func(_ *Ticket, cancel context.CancelCauseFunc) { cancel(errQuota) },
			wantErr: context.Canceled, wrapped: errQuota},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var parent context.Context = context.WithValue(context.Background(), key{}, tc.name)
			cancel := context.CancelCauseFunc(func(error) {})
			if tc.parent != nil {
				parent, cancel = tc.parent(parent)
			}
			defer cancel(nil)
			tk := newTicket(parent, 1, &Request{Deadline: tc.deadline})
			c := &tk.ctx

			if dl, ok := c.Deadline(); ok != !tc.wantDL.IsZero() || !dl.Equal(tc.wantDL) {
				t.Fatalf("Deadline() = %v, %v, want %v", dl, ok, tc.wantDL)
			}
			if v := c.Value(key{}); v != tc.name {
				t.Fatalf("Value = %v, want the submit context's %q", v, tc.name)
			}
			before := runtime.NumGoroutine()
			child, stopChild := context.WithCancel(c)
			defer stopChild()
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("deriving from the ticket's context started %d goroutines", n-before)
			}

			if tc.end != nil {
				tc.end(tk, cancel)
			}
			if tc.wantErr == nil {
				if err := c.Err(); err != nil || tk.Status() != qdmi.JobQueued {
					t.Fatalf("an unended ticket: Err = %v, status %v", err, tk.Status())
				}
				return
			}
			select {
			case <-tk.DoneCh():
			case <-time.After(5 * time.Second):
				t.Fatal("the ticket never resolved")
			}
			if err := c.Err(); err != tc.wantErr {
				t.Fatalf("Err() = %v, want %v", err, tc.wantErr)
			}
			if tk.Status() != qdmi.JobCancelled || !errors.Is(tk.err, ErrCancelled) {
				t.Fatalf("ticket ended %v with %v, want cancelled with ErrCancelled", tk.Status(), tk.err)
			}
			if tc.wrapped != nil && !errors.Is(tk.err, tc.wrapped) {
				t.Fatalf("cancellation error %v does not wrap %v", tk.err, tc.wrapped)
			}
			if tc.wrapped == nil && errors.Is(tk.err, context.DeadlineExceeded) {
				t.Fatalf("cancellation error %v claims a deadline", tk.err)
			}
			select {
			case <-child.Done():
			default:
				t.Fatal("a context derived from the ticket's did not end with it")
			}
			if child.Err() != tc.wantErr {
				t.Fatalf("derived Err() = %v, want %v", child.Err(), tc.wantErr)
			}
		})
	}
}

// TestTicketContextAfterFunc: a hook registered on a fired context runs in
// a goroutine of its own — its registrar may hold a lock the hook takes —
// and one stopped before the context fires never runs.
func TestTicketContextAfterFunc(t *testing.T) {
	testutil.AssertNoLeaks(t)
	tk := newTicket(context.Background(), 1, &Request{})
	ran := make(chan string, 2)
	stopped := tk.ctx.AfterFunc(func() { ran <- "stopped" })
	tk.ctx.AfterFunc(func() { ran <- "armed" })
	if !stopped() {
		t.Fatal("stop on an armed hook reported nothing to stop")
	}
	tk.Cancel()
	if got := <-ran; got != "armed" {
		t.Fatalf("hook %q ran, want the armed one", got)
	}
	stop := tk.ctx.AfterFunc(func() { ran <- "late" })
	if got := <-ran; got != "late" {
		t.Fatalf("hook %q ran, want the late one", got)
	}
	if stop() {
		t.Fatal("stop after the hook ran reported stopping it")
	}
	select {
	case got := <-ran:
		t.Fatalf("hook %q ran after being stopped", got)
	default:
	}
}

// TestTicketContextConcurrentEnds races every way a ticket's context can
// end — Cancel, the submit context, the deadline timer, a Done caller and a
// derived context — against the runner's finish (run under -race in CI):
// each ticket resolves exactly once, and a context that fired has closed
// every Done channel handed out.
func TestTicketContextConcurrentEnds(t *testing.T) {
	testutil.AssertNoLeaks(t)
	for i := 0; i < 200; i++ {
		parent, cancel := context.WithCancel(context.Background())
		tk := newTicket(parent, int64(i), &Request{Deadline: time.Now().Add(time.Duration(i%4) * 50 * time.Microsecond)})
		run := i%2 == 0 && tk.move(qdmi.JobQueued, qdmi.JobRunning, nil, nil)
		done := make(chan context.Context, 2)
		for _, f := range []func(){
			tk.Cancel,
			cancel,
			func() { tk.ctx.Done(); done <- &tk.ctx },
			func() {
				child, stop := context.WithCancel(&tk.ctx)
				t.Cleanup(stop)
				done <- child
			},
			func() {
				if run {
					tk.finish(&qdmi.Result{}, nil, qdmi.JobDone)
				}
			},
		} {
			go f()
		}
		<-tk.DoneCh()
		if st := tk.Status(); !st.Terminal() {
			t.Fatalf("ticket %d resolved %v", i, st)
		}
		tk.Cancel()
		for range 2 {
			select {
			case <-(<-done).Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("ticket %d: a Done channel never closed", i)
			}
		}
		cancel()
	}
}

// withDeadlineCause is context.WithDeadline with the cancel function
// TestTicketContext's table takes.
func withDeadlineCause(parent context.Context, d time.Time) (context.Context, context.CancelCauseFunc) {
	ctx, cancel := context.WithDeadline(parent, d)
	return ctx, func(error) { cancel() }
}
