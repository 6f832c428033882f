package qrm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
)

// claimProbe watches a fake device whose jobs run on their first Wait, as a
// SimDevice's do, so a waiter that claims the device runs the body on its
// own goroutine. As a body starts, the probe records its payload and
// whether it runs inside Ticket.Wait; with gate set (under mu), the body
// holds the device until gate closes or the job is cancelled.
type claimProbe struct {
	dev    *qdmitest.Device
	inline atomic.Int32 // bodies run by a waiter (inside Ticket.Wait)

	mu    sync.Mutex
	gate  chan struct{}
	order []string // payloads in the order their bodies started
}

// newClaimProbe builds a probed device and a scheduler over it with the
// leak check on, closing it at cleanup.
func newClaimProbe(t *testing.T, name string) (*Scheduler, *claimProbe) {
	p := &claimProbe{dev: qdmitest.New(name, 2)}
	p.dev.SetHold(func(sub qdmitest.Submission) <-chan struct{} {
		buf := make([]byte, 16<<10)
		if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Ticket).Wait") {
			p.inline.Add(1)
		}
		p.mu.Lock()
		p.order = append(p.order, sub.ID)
		gate := p.gate
		p.mu.Unlock()
		runtime.Gosched() // widen the window another body could overlap
		return gate
	})
	return rig(t, p.dev), p
}

// started returns the payloads in the order their bodies started.
func (p *claimProbe) started() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}

// setGate makes the bodies that start from now on wait for gate (nil: none
// waits).
func (p *claimProbe) setGate(gate chan struct{}) {
	p.mu.Lock()
	p.gate = gate
	p.mu.Unlock()
}

// oneProc runs the rest of the test at GOMAXPROCS 1, where a submitter that
// goes straight on to Wait reaches the scheduler before the worker its
// submission woke, so the waiter's side of the race is the one exercised.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWaiterClaimsKeepOneJobPerDevice: many goroutines submit and wait on
// one device, directly or through its one-member pool, under the background
// context or their own submit context, so waiters and the worker race for
// every job. The device never runs two bodies at once, every job runs at
// most once and resolves once, and the counters balance.
func TestWaiterClaimsKeepOneJobPerDevice(t *testing.T) {
	s, dev := newClaimProbe(t, "qpu")
	if err := s.RegisterPool("p", "qpu"); err != nil {
		t.Fatal(err)
	}
	const callers, jobs = 8, 40
	var (
		wg                 sync.WaitGroup
		ok, cancelled, bad atomic.Int64
	)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if c%2 == 1 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			for j := range jobs {
				req := Request{
					Device: "qpu", Payload: []byte(fmt.Sprintf("c%d-j%d", c, j)),
					Format: qdmi.FormatQIRBase, Shots: 3,
				}
				if j%3 == 1 {
					req.Device, req.Pool = "", "p"
				}
				tk, err := s.SubmitCtx(ctx, req)
				if err != nil {
					bad.Add(1)
					return
				}
				if j%7 == 3 {
					tk.Cancel()
				}
				res, err := tk.Wait(ctx)
				switch {
				case err == nil && res.Shots == 3 && tk.Status() == qdmi.JobDone:
					ok.Add(1)
				case errors.Is(err, ErrCancelled) && tk.Status() == qdmi.JobCancelled:
					cancelled.Add(1)
				default:
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d jobs failed to submit or resolved inconsistently", n)
	}
	if got := ok.Load() + cancelled.Load(); got != callers*jobs {
		t.Fatalf("%d tickets resolved, want %d", got, callers*jobs)
	}
	if p := dev.dev.Peak(); p != 1 {
		t.Fatalf("device ran %d job bodies at once, want 1", p)
	}
	seen := map[string]bool{}
	for _, p := range dev.started() {
		if seen[p] {
			t.Fatalf("job %s ran twice", p)
		}
		seen[p] = true
	}
	if int64(len(seen)) != ok.Load() {
		t.Fatalf("%d job bodies ran, %d tickets completed", len(seen), ok.Load())
	}
	// A ticket cancelled while queued resolves at once; it is counted when
	// the worker or a waiter pops it.
	deadline := time.Now().Add(5 * time.Second)
	st := s.Stats()
	for st.Completed+st.Failed+st.Cancelled != st.Submitted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = s.Stats()
	}
	if st.Submitted != callers*jobs || st.Completed != ok.Load() || st.Failed != 0 || st.Cancelled != cancelled.Load() {
		t.Fatalf("stats = %+v, want %d submitted = %d completed + %d cancelled",
			st, callers*jobs, ok.Load(), cancelled.Load())
	}
	t.Logf("%d of %d job bodies ran on their waiter", dev.inline.Load(), len(seen))
}

// TestWaiterDoesNotClaimPastHigherPriorityPoolJob: a waiter on a
// device-targeted ticket finds its device idle, but a higher-priority pool
// job is what the device's worker would take next — so the waiter parks,
// and the pool job runs first. On the one-member pool no steal can reorder
// them.
func TestWaiterDoesNotClaimPastHigherPriorityPoolJob(t *testing.T) {
	oneProc(t)
	s, dev := newClaimProbe(t, "solo")
	if err := s.RegisterPool("p", "solo"); err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		high, err := s.SubmitCtx(context.Background(), Request{
			Pool: "p", Payload: []byte(fmt.Sprintf("high-%d", i)), Format: qdmi.FormatQIRBase, Shots: 1, Priority: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		low, err := s.SubmitCtx(context.Background(), Request{
			Device: "solo", Payload: []byte(fmt.Sprintf("low-%d", i)), Format: qdmi.FormatQIRBase, Shots: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := low.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := high.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	order := dev.started()
	for i := 0; i < len(order); i += 2 {
		if !strings.HasPrefix(order[i], "high-") || !strings.HasPrefix(order[i+1], "low-") {
			t.Fatalf("execution order = %v, want each high job before its low job", order)
		}
	}
}

// TestWaiterUnderForeignContextNeverRunsJob: a Wait whose ctx is not the
// submit context's never runs the job, so cancelling that ctx abandons only
// the wait — promptly, while the device holds the job — and the job still
// completes on the worker.
func TestWaiterUnderForeignContextNeverRunsJob(t *testing.T) {
	oneProc(t)
	s, dev := newClaimProbe(t, "qpu")
	submitCtx, cancelSubmit := context.WithCancel(context.Background())
	defer cancelSubmit()
	for i := range 10 {
		gate := make(chan struct{})
		dev.setGate(gate)
		// Half the jobs are submitted under a context that never ends, half
		// under one that could; either way the wait's own ctx is neither.
		ctx := context.Background()
		if i%2 == 1 {
			ctx = submitCtx
		}
		tk, err := s.SubmitCtx(ctx, Request{
			Device: "qpu", Payload: []byte(fmt.Sprintf("job-%d", i)), Format: qdmi.FormatQIRBase, Shots: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		waited := make(chan error, 1)
		go func() {
			_, err := tk.Wait(waitCtx)
			waited <- err
		}()
		select {
		case err = <-waited:
		case <-time.After(2 * time.Second):
			close(gate) // a Wait that ran the job is held by its body
			t.Fatalf("job %d: the wait outlived its ctx by seconds", i)
		}
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("job %d: err = %v, want the wait's DeadlineExceeded", i, err)
		}
		if st := tk.Status(); st.Terminal() {
			t.Fatalf("job %d: abandoned wait left the ticket %v", i, st)
		}
		close(gate)
		select {
		case <-tk.DoneCh():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never completed on the worker", i)
		}
		if tk.Status() != qdmi.JobDone {
			t.Fatalf("job %d: status %v", i, tk.Status())
		}
	}
	if n := dev.inline.Load(); n != 0 {
		t.Fatalf("%d jobs ran inside a Wait under a foreign context", n)
	}
}

// TestCloseWaitsForClaimingWaiter: Close while a waiter runs a job it
// claimed returns only after that run ends, and the device's worker still
// drains what queued behind it.
func TestCloseWaitsForClaimingWaiter(t *testing.T) {
	oneProc(t)
	s, dev := newClaimProbe(t, "qpu")
	gate := make(chan struct{})
	dev.setGate(gate)
	// The submitter goes straight on to Wait, as qpi.Run does. Retry until
	// a waiter, not the worker, holds the device.
	var claimed *Ticket
	waited := make(chan error, 1)
	for i := 0; claimed == nil; i++ {
		if i == 50 {
			t.Fatal("no waiter claimed the idle device in 50 tries")
		}
		tks := make(chan *Ticket, 1)
		go func() {
			tk, err := s.SubmitCtx(context.Background(), Request{
				Device: "qpu", Payload: []byte(fmt.Sprintf("held-%d", i)), Format: qdmi.FormatQIRBase, Shots: 1,
			})
			if err != nil {
				tks <- nil
				waited <- err
				return
			}
			tks <- tk
			_, err = tk.Wait(context.Background())
			waited <- err
		}()
		tk := <-tks
		if tk == nil {
			t.Fatal(<-waited)
		}
		for len(dev.started()) != i+1 {
			time.Sleep(time.Millisecond)
		}
		if dev.inline.Load() == 1 {
			claimed = tk
			break
		}
		// The worker took it: let it go and try again.
		close(gate)
		if err := <-waited; err != nil {
			t.Fatal(err)
		}
		gate = make(chan struct{})
		dev.setGate(gate)
	}
	dev.setGate(nil) // the jobs queued behind the held one run through
	var queued []*Ticket
	for j := range 2 {
		queued = append(queued, submit(t, s, context.Background(), fmt.Sprintf("queued-%d", j)))
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a waiter held the device")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the waiter's run ended")
	}
	if claimed.Status() != qdmi.JobDone {
		t.Fatalf("Close returned with the claimed job %v", claimed.Status())
	}
	if err := <-waited; err != nil {
		t.Fatalf("claimed job: %v", err)
	}
	for _, tk := range queued {
		if tk.Status() != qdmi.JobDone {
			t.Fatalf("job queued behind the waiter: status %v, want drained", tk.Status())
		}
	}
	if p := dev.dev.Peak(); p != 1 {
		t.Fatalf("device ran %d job bodies at once, want 1", p)
	}
}
