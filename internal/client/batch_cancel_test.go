package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
)

// blockGate arms the stack's device: entered receives a token as each job
// starts on it, and the job holds the device there until release closes or
// it is cancelled. A job cancelled while held never reaches the simulator.
func blockGate(c *Client) (release chan struct{}, entered chan struct{}) {
	release, entered = make(chan struct{}), make(chan struct{}, 16)
	stackDevice(c).SetHold(func(qdmitest.Submission) <-chan struct{} {
		select {
		case entered <- struct{}{}:
		default:
		}
		return release
	})
	return release, entered
}

func TestClientCancelQueuedPreventsExecution(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)

	// First submission occupies the worker: the gated device holds it.
	first, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 50})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// Second submission sits in the queue; cancel its context.
	ctx, cancel := context.WithCancel(context.Background())
	second, err := c.SubmitCtx(ctx, bell(t), "hpcqc-sc", SubmitOptions{Shots: 50})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := second.Wait(context.Background()); !errors.Is(err, qrm.ErrCancelled) {
		t.Fatalf("queued cancel: err = %v", err)
	}
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The cancelled job never reached the device: exactly one completion.
	deadline := time.Now().Add(5 * time.Second)
	for c.QRM().Stats().Cancelled == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := c.QRM().Stats()
	if st.Completed != 1 || st.Cancelled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunDeadlineThroughFullStack(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)

	backend := &NativeAdapter{Client: c, Target: "hpcqc-sc"}
	// Park the worker so the deadline bites while the job is queued.
	first, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 50})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	<-entered

	start := time.Now()
	_, err = qpi.Run(context.Background(), backend, bell(t),
		qpi.WithShots(50), qpi.WithTimeout(80*time.Millisecond))
	if err == nil {
		t.Fatal("deadline did not fire")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, qrm.ErrCancelled) {
		t.Fatalf("err = %v, want both context.DeadlineExceeded and qrm.ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run returned after %v, want ≈80ms", elapsed)
	}
}

func TestHandleStatusAndCancel(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)

	backend := &NativeAdapter{Client: c, Target: "hpcqc-sc"}
	h, err := qpi.Start(context.Background(), backend, bell(t), qpi.WithShots(50))
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" {
		t.Fatal("handle without ID")
	}
	<-entered // the submission is now inside the worker
	h.Cancel()
	if _, err := h.Wait(context.Background()); !errors.Is(err, qrm.ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if st := h.Status(); st != qpi.ExecCancelled {
		t.Fatalf("status = %v", st)
	}
}

func TestRunBatchPartialFailure(t *testing.T) {
	c, _ := testStack(t)
	good1 := bell(t)
	bad := qpi.NewCircuit("bad", 1, 0).X(9) // out-of-range qubit
	_ = bad.End()
	good2 := bell(t)
	results, err := c.RunBatch(context.Background(), []*qpi.Circuit{good1, bad, good2},
		"hpcqc-sc", SubmitOptions{Shots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("len = %d", len(results))
	}
	if results[0].Err != nil || results[0].Result == nil || results[0].Result.Shots != 100 {
		t.Fatalf("good1: %+v", results[0])
	}
	if results[1].Err == nil || results[1].Result != nil {
		t.Fatalf("bad entry succeeded: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Result == nil {
		t.Fatalf("good2: %+v", results[2])
	}
}

func TestRunBatchCancelledContext(t *testing.T) {
	c, _ := testStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunBatch(ctx, []*qpi.Circuit{bell(t)}, "hpcqc-sc", SubmitOptions{Shots: 10}); err == nil {
		t.Fatal("cancelled batch accepted")
	}
}

// TestSubmitBatchCancelledContext goes past RunBatch's own ctx check: with
// more kernels than compile workers, every batch goroutine must leave the
// semaphore select on ctx.Done, so each entry fails typed, none gets a
// ticket, and SubmitBatch's Wait returns with nothing left running.
func TestSubmitBatchCancelledContext(t *testing.T) {
	c, _ := testStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	kernels := make([]*qpi.Circuit, 2*batchCompileWorkers()+1)
	for i := range kernels {
		kernels[i] = bell(t)
	}
	tickets, errs := c.SubmitBatch(ctx, kernels, "hpcqc-sc", SubmitOptions{Shots: 10})
	if len(tickets) != len(kernels) || len(errs) != len(kernels) {
		t.Fatalf("got %d tickets and %d errors for %d kernels", len(tickets), len(errs), len(kernels))
	}
	for i := range kernels {
		if tickets[i] != nil || !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("entry %d: ticket %v, err %v; want no ticket and context.Canceled", i, tickets[i], errs[i])
		}
	}
	if st := c.QRM().Stats(); st.Submitted != 0 {
		t.Fatalf("a cancelled batch reached the scheduler: %+v", st)
	}
}

// TestRunBatchConcurrentSubmitters exercises concurrent RunBatch calls for
// the -race pass: several goroutines batch-submit against the same client
// and device simultaneously.
func TestRunBatchConcurrentSubmitters(t *testing.T) {
	c, _ := testStack(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kernels := make([]*qpi.Circuit, 6)
			for i := range kernels {
				k := qpi.NewCircuit(fmt.Sprintf("g%d-k%d", g, i), 2, 2).
					H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
				if err := k.End(); err != nil {
					errCh <- err
					return
				}
				kernels[i] = k
			}
			results, err := c.RunBatch(context.Background(), kernels, "hpcqc-sc",
				SubmitOptions{Shots: 16})
			if err != nil {
				errCh <- err
				return
			}
			for i, r := range results {
				if r.Err != nil {
					errCh <- fmt.Errorf("g%d item %d: %w", g, i, r.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestLoweringCacheWaveformSamplesKeyed(t *testing.T) {
	// Two kernels with identical op structure but different sample data
	// under the same waveform name must not share a cache entry.
	c, dev := testStack(t)
	amp := dev.CalibratedPiAmplitude(0)
	make2 := func(scale float64) *qpi.Circuit {
		samples := make([]complex128, 32)
		for i := range samples {
			samples[i] = complex(amp*scale, 0)
		}
		k := qpi.NewCircuit("wf", 1, 1).
			Waveform("w", samples).
			PlayWaveform("q0-drive", "w").
			Measure(0, 0)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	p1, _, err := c.Compile(make2(0.9), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := c.Compile(make2(0.4), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) == string(p2) {
		t.Fatal("different waveform samples collided in the lowering cache")
	}
	if c.CacheStats().Hits != 0 {
		t.Fatalf("cache hits = %d, want 0 (distinct kernels)", c.CacheStats().Hits)
	}
	// Same samples do hit.
	if _, _, err := c.Compile(make2(0.9), "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", c.CacheStats().Hits)
	}
}

func TestRemoteSubmitDeadline(t *testing.T) {
	// A blocked worker holds the remote job; the 150ms context must bound
	// the round trip. Either side may report it first (the adapter's read
	// deadline or the server's wire-propagated timeout) — both are errors
	// delivered promptly.
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)

	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	// Park the worker so the remote job cannot finish in time.
	first, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	<-entered

	remote, err := NewRemoteAdapterCtx(context.Background(), srv.Addr(), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, SubmitOptions{Shots: 16})
	if err == nil {
		t.Fatal("remote deadline did not fire")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("remote submit returned after %v, want ≈150ms", elapsed)
	}
}

// TestRemoteCancelledContextPoisonsConnection: a mute endpoint never
// answers, so the context is guaranteed to fire mid-read. The adapter must
// surface ctx.Err() promptly and close the half-read connection; that
// connection is never written again, and the next submission goes out on a
// new connection to the live server and succeeds.
func TestRemoteCancelledContextPoisonsConnection(t *testing.T) {
	c, _ := testStack(t)
	srv := serveTest(t, c)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // swallow, never reply, until the adapter hangs up
	}()

	// The pool starts on the mute connection; any connection it dials is
	// to the live server.
	mute := &recordingConn{Conn: dialTest(t, ln.Addr().String())}
	remote := newRemoteAdapter(srv.Addr(), mute)
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = remote.SubmitPayloadCtx(ctx, "dev", []byte("payload"), qdmi.FormatQIRBase, SubmitOptions{Shots: 16})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("submit returned after %v, want ≈120ms", elapsed)
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("the poisoned connection was not closed")
	}
	mute.take(t)

	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := remote.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, SubmitOptions{Shots: 16})
	if err != nil {
		t.Fatalf("submission after a poisoned connection: %v", err)
	}
	if res.Shots != 16 {
		t.Fatalf("shots = %d, want 16", res.Shots)
	}
	if ops, _ := mute.take(t); len(ops) != 0 {
		t.Fatalf("the poisoned connection was written again: %v", ops)
	}
}

func TestServerMaxJobTime(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)

	srv, err := NewServer(c, "127.0.0.1:0", WithServerMaxJobTime(120*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 16})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	<-entered

	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// No client deadline: the server-side cap alone bounds the job, and the
	// caller hears a deadline, not a bare message.
	_, err = remote.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, SubmitOptions{Shots: 16})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server job cap: err = %v, want context.DeadlineExceeded", err)
	}
}
