package qrm

import (
	"context"
	"errors"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/telemetry"
)

// blockingRig is a scheduler over one device, "qpu", whose jobs run until
// release closes or they are cancelled.
func blockingRig(t *testing.T) (s *Scheduler, dev *qdmitest.Device, release chan struct{}) {
	t.Helper()
	dev = device("qpu")
	s = rig(t, dev)
	return s, dev, hold(t, dev)
}

func submit(t *testing.T, s *Scheduler, ctx context.Context, payload string) *Ticket {
	t.Helper()
	tk, err := s.SubmitCtx(ctx, Request{
		Device: "qpu", Payload: []byte(payload), Format: qdmi.FormatQIRBase, Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// waitRunning blocks until the ticket has been dispatched to the device.
func waitRunning(t *testing.T, tk *Ticket) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tk.Status() != qdmi.JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("ticket never started running (status %v)", tk.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelQueuedTicketPreventsDeviceExecution(t *testing.T) {
	s, dev, release := blockingRig(t)
	// First job occupies the single device worker...
	first := submit(t, s, context.Background(), "first")
	waitRunning(t, first)
	// ...so the second sits in the queue when its context is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	second := submit(t, s, ctx, "second")
	cancel()

	// The cancelled ticket resolves promptly, while still queued.
	res, err := second.Wait(context.Background())
	if res != nil || !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled queued ticket: res=%v err=%v", res, err)
	}
	if st := second.Status(); st != qdmi.JobCancelled {
		t.Fatalf("status = %v", st)
	}

	// Let the first job finish and the queue drain.
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pop (and skip) the cancelled item.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Cancelled == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// The device only ever saw the first payload.
	if got := ids(dev); len(got) != 1 || got[0] != "first" {
		t.Fatalf("device executed %v, want [first]", got)
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWaitReturnsWithinContextDeadline(t *testing.T) {
	s, _, _ := blockingRig(t)
	tk := submit(t, s, context.Background(), "blocked")
	waitRunning(t, tk)

	// The job is blocked on the device; a Wait bounded to 50ms must return
	// ctx.Err() promptly without resolving the ticket.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tk.Wait(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Wait returned after %v, want ≈50ms", elapsed)
	}
	if tk.Status() != qdmi.JobRunning {
		t.Fatalf("abandoned wait changed ticket status to %v", tk.Status())
	}
}

func TestCancelRunningTicketAbortsDeviceJob(t *testing.T) {
	s, _, _ := blockingRig(t)
	tk := submit(t, s, context.Background(), "inflight")
	waitRunning(t, tk)

	// Cancelling while the device job is in flight goes through the
	// RunningCanceller capability: the ticket resolves as cancelled without
	// waiting for the device to release.
	tk.Cancel()
	ctx, cancelWait := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelWait()
	_, err := tk.Wait(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	// The waiter unblocks as soon as the ticket resolves; the worker books
	// the cancellation a moment later.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Cancelled != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitCtxRejectsCancelledContext(t *testing.T) {
	s, _, _ := blockingRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitCtx(ctx, Request{
		Device: "qpu", Payload: []byte("x"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestTicketTagAndStatusLifecycle(t *testing.T) {
	s, _, release := blockingRig(t)
	tk, err := s.SubmitCtx(context.Background(), Request{
		Device: "qpu", Payload: []byte("tagged"), Format: qdmi.FormatQIRBase,
		Shots: 1, Tag: "tenant-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Tag() != "tenant-a" {
		t.Fatalf("tag = %q", tk.Tag())
	}
	waitRunning(t, tk)
	close(release)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tk.Status(); st != qdmi.JobDone || !st.Terminal() {
		t.Fatalf("status = %v terminal=%v", st, st.Terminal())
	}
}

func TestCancelIsIdempotentAfterCompletion(t *testing.T) {
	s, _, release := blockingRig(t)
	tk := submit(t, s, context.Background(), "job")
	close(release)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	tk.Cancel() // must not disturb the completed ticket
	if tk.Status() != qdmi.JobDone {
		t.Fatalf("status after late cancel = %v", tk.Status())
	}
	if res, err := tk.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("result lost after late cancel: %v %v", res, err)
	}
}

// TestNormalFinishNeverRunsCtxDone: the worker's resolution detaches the
// submit context's hook and the deadline timer without firing the ticket's
// context, so a job that simply finishes runs no cancellation path —
// onCtxDone formats no error for nobody — and leaves nothing armed: both
// stop functions report that there was nothing left to stop.
func TestNormalFinishNeverRunsCtxDone(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	tk := newTicket(parent, 1, &Request{Deadline: time.Now().Add(time.Hour)})
	if tk.ctx.stopParent == nil || tk.ctx.timer == nil {
		t.Fatal("a cancellable submit context and a deadline armed no hook and no timer")
	}
	if !tk.move(qdmi.JobQueued, qdmi.JobRunning, nil, nil) {
		t.Fatal("fresh ticket refused to run")
	}
	tk.finish(&qdmi.Result{}, nil, qdmi.JobDone)
	if err := tk.ctx.Err(); err != nil {
		t.Fatalf("finish fired the ticket's context: %v", err)
	}
	if tk.ctx.stopParent() {
		t.Fatal("finish left the submit context's hook armed")
	}
	if tk.ctx.timer.Stop() {
		t.Fatal("finish left the deadline timer armed")
	}
	if res, err := tk.Wait(context.Background()); err != nil || res == nil || tk.Status() != qdmi.JobDone {
		t.Fatalf("finished ticket: %v, %v, %v", res, err, tk.Status())
	}
}

// TestDispatchSpanOnTimelineBeforeWaiterWakes checks, for every way a
// dispatched job can end, that a goroutine woken by Ticket.Wait finds the
// job's one dispatch span already recorded: the span closes inside the
// worker before the ticket resolves, never after.
func TestDispatchSpanOnTimelineBeforeWaiterWakes(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*qdmitest.Device)
		end   func(tk *Ticket, release chan struct{}) // nil: the job ends by itself
		want  error
	}{
		{"device refuses the job", func(d *qdmitest.Device) { d.SubmitErr = qdmi.ErrFatal }, nil, qdmi.ErrFatal},
		{"cancelled mid-flight, device cannot abort", func(d *qdmitest.Device) { d.NoAbort = true },
			func(tk *Ticket, _ chan struct{}) { tk.Cancel() }, ErrCancelled},
		{"completes", func(*qdmitest.Device) {},
			func(_ *Ticket, release chan struct{}) { close(release) }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, dev, release := blockingRig(t)
			tc.setup(dev)
			tk, err := s.SubmitCtx(context.Background(), Request{
				Device: "qpu", Payload: []byte("job"), Format: qdmi.FormatQIRBase, Shots: 1,
				Timeline: telemetry.NewTimeline("", nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			type woken struct {
				err      error
				dispatch int
			}
			seen := make(chan woken, 1)
			go func() {
				_, err := tk.Wait(context.Background())
				n := 0
				for _, sp := range tk.Timeline().Spans() {
					if sp.Stage == telemetry.StageDispatch {
						n++
					}
				}
				seen <- woken{err, n}
			}()
			if tc.end != nil {
				// Running is not yet dispatched: a cancel that lands before the
				// device has the job ends it with no dispatch to span.
				waitRunning(t, tk)
				for len(ids(dev)) == 0 {
					time.Sleep(time.Millisecond)
				}
				tc.end(tk, release)
			}
			got := <-seen
			if !errors.Is(got.err, tc.want) {
				t.Fatalf("err = %v, want %v", got.err, tc.want)
			}
			if got.dispatch != 1 {
				t.Fatalf("waiter woke to %d dispatch spans, want 1", got.dispatch)
			}
		})
	}
}

// TestOrphanedJobLeavesTheTimelineToItsReader cancels a job its device
// cannot abort and runs on a goroutine of its own (run under -race in CI):
// the ticket resolves while the job still runs, and the orphan, released,
// then finishes and publishes to its timeline's registry
// ("qdmitest/finished") while the caller reads the timeline and the
// registry. Nothing races: the
// worker wrote the timeline last, before done closed, and the orphan
// touches only the registry's atomics.
func TestOrphanedJobLeavesTheTimelineToItsReader(t *testing.T) {
	s, dev, release := blockingRig(t)
	dev.NoAbort = true
	reg := telemetry.NewRegistry()
	tl := telemetry.NewTimeline("", reg)
	tk, err := s.SubmitCtx(context.Background(), Request{
		Device: "qpu", Payload: []byte("job"), Format: qdmi.FormatQIRBase, Shots: 1, Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	for len(ids(dev)) == 0 {
		time.Sleep(time.Millisecond)
	}
	tk.Cancel()
	if _, err := tk.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	close(release)
	for done := false; !done; {
		done = reg.Snapshot().Counters["qdmitest/finished"] == 1
		stages := map[telemetry.Stage]int{}
		for _, sp := range tl.Spans() {
			stages[sp.Stage]++
		}
		if len(stages) != 2 || stages[telemetry.StageQueueWait] != 1 || stages[telemetry.StageDispatch] != 1 {
			t.Fatalf("timeline after the ticket resolved = %v, want one queue-wait and one dispatch span", stages)
		}
	}
}
