package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/testutil"
)

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// countingServer is serveTest over a listener that counts what it accepts.
func countingServer(t *testing.T, c *Client) (*Server, *countingListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := newServer(c, ln)
	srv.wg.Add(1)
	go srv.acceptLoop()
	t.Cleanup(srv.Close)
	return srv, ln
}

// TestRemoteAdapterConcurrentCallers: callers sharing one adapter run side
// by side and get what they would have got one at a time. Each of eight
// goroutines runs its jobs on a device of its own, seeded apart, so its
// counts depend on nothing the others do and must equal a serial run's on
// an identically seeded stack. The server never accepts more than maxConns
// connections from the adapter, and nothing is left running after Close.
func TestRemoteAdapterConcurrentCallers(t *testing.T) {
	testutil.AssertNoLeaks(t)
	const callers, jobs = 8, 6
	names := make([]string, callers)
	for g := range names {
		names[g] = fmt.Sprintf("tiny-%d", g)
	}
	ctx := context.Background()
	k := rotation(t, 1.1)
	serialStack := tinyStack(t, names...)
	payloads := make([][]byte, callers)
	var format qdmi.ProgramFormat
	for g, name := range names {
		var err error
		if payloads[g], format, err = serialStack.Compile(k, name); err != nil {
			t.Fatal(err)
		}
	}
	run := func(ad *RemoteAdapter, g int) ([]map[uint64]int, error) {
		var counts []map[uint64]int
		for range jobs {
			res, err := ad.SubmitPayloadCtx(ctx, names[g], payloads[g], format, SubmitOptions{Shots: 64})
			if err != nil {
				return nil, err
			}
			counts = append(counts, res.Counts)
		}
		return counts, nil
	}

	serial, err := NewRemoteAdapter(serveTest(t, serialStack).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	want := make([][]map[uint64]int, callers)
	for g := range want {
		if want[g], err = run(serial, g); err != nil {
			t.Fatalf("serial caller %d: %v", g, err)
		}
	}

	srv, ln := countingServer(t, tinyStack(t, names...))
	shared, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]map[uint64]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(shared, g)
		}()
	}
	wg.Wait()
	shared.Close()
	for g := range callers {
		if errs[g] != nil {
			t.Fatalf("concurrent caller %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Errorf("caller %d: concurrent counts %v, serial %v", g, got[g], want[g])
		}
	}
	if n := ln.accepted.Load(); n > maxConns {
		t.Fatalf("the server accepted %d connections from one adapter, cap %d", n, maxConns)
	}
}

// TestRemoteCloseDuringExchange: with every connection of the pool in
// flight, a further caller waits under its own ctx and gives up when it
// ends, and its dispatch span covers the wait; Close returns at once and
// fails every exchange in flight promptly, and later calls fail as closed.
func TestRemoteCloseDuringExchange(t *testing.T) {
	c, _ := testStack(t)
	release, _ := blockGate(c)
	var releaseOnce sync.Once
	releaseGate := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseGate()
	srv := serveTest(t, c)
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	submit := func(ctx context.Context, tl *telemetry.Timeline) error {
		_, err := remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, SubmitOptions{Shots: 16, Timeline: tl})
		return err
	}
	// The gate holds the first job on the device and the scheduler queues
	// the rest, so all maxConns exchanges stay in flight.
	errs := make(chan error, maxConns)
	for range maxConns {
		go func() { errs <- submit(context.Background(), nil) }()
	}
	for deadline := time.Now().Add(5 * time.Second); len(remote.slots) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d connections still free", len(remote.slots), maxConns)
		}
	}

	const wait = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	tl := telemetry.NewTimeline("", nil)
	start := time.Now()
	if err := submit(ctx, tl); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller past the cap: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("caller past the cap returned after %v, want ≈100ms", elapsed)
	}
	if spans := tl.Spans(); len(spans) != 1 || spans[0].Stage != telemetry.StageDispatch || spans[0].Duration < wait/2 {
		t.Fatalf("caller past the cap recorded %+v, want one dispatch span covering its %v wait", spans, wait)
	}

	start = time.Now()
	remote.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v with exchanges in flight", elapsed)
	}
	for i := range maxConns {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("exchange %d in flight at Close succeeded", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("exchange %d in flight at Close did not return", i)
		}
	}
	if err := submit(context.Background(), nil); !errors.Is(err, errAdapterClosed) {
		t.Fatalf("submit after Close: err = %v, want the closed-adapter error", err)
	}
	// The server still runs the jobs its callers hung up on; let them finish
	// before it closes, so none is cancelled while the gate is running it.
	releaseGate()
	for deadline := time.Now().Add(5 * time.Second); c.QRM().Stats().Completed < maxConns; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want %d completed", c.QRM().Stats(), maxConns)
		}
	}
}

// TestRemoteSpansOnlyForTracedCallers: the server ships its lifecycle spans
// back only to a submit that carries a trace ID. An untraced response line
// has no spans key at all, though the job still fed the server's stage
// histograms; a traced one carries the server's spans.
func TestRemoteSpansOnlyForTracedCallers(t *testing.T) {
	c, _ := testStack(t)
	srv := serveTest(t, c)
	payload, _, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialTest(t, srv.Addr())
	defer conn.Close()
	rd := bufio.NewReader(conn)
	exchange := func(req remoteRequest) []byte {
		t.Helper()
		if _, err := conn.Write(requestLine(t, req)); err != nil {
			t.Fatal(err)
		}
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	if line := exchange(remoteRequest{Op: "register", ID: "p", Program: string(payload)}); bytes.Contains(line, []byte(`"error"`)) {
		t.Fatalf("register: %s", line)
	}
	executed := func() int64 {
		return c.telem.Snapshot().Histograms["stage/"+string(telemetry.StageDeviceExecute)].Count
	}
	before := executed()
	submit := remoteRequest{Op: "submit", ID: "p", Device: "hpcqc-sc", SubmitOptions: SubmitOptions{Shots: 16}}
	if line := exchange(submit); bytes.Contains(line, []byte(`"spans"`)) || bytes.Contains(line, []byte(`"error"`)) {
		t.Fatalf("untraced response: %s", line)
	}
	if n := executed(); n != before+1 {
		t.Fatalf("untraced submit: the server observed %d device-execute spans, want %d", n, before+1)
	}
	submit.TraceID = "trace-spans"
	var resp remoteResponse
	if err := parseResponse(exchange(submit), &resp); err != nil {
		t.Fatal(err)
	}
	var stages []telemetry.Stage
	for _, s := range resp.Spans {
		stages = append(stages, s.Stage)
	}
	for _, st := range []telemetry.Stage{telemetry.StageQueueWait, telemetry.StageDispatch, telemetry.StageDeviceExecute} {
		if !slices.Contains(stages, st) {
			t.Fatalf("traced response spans %v lack %s", stages, st)
		}
	}
}

// TestRemoteFailureKeepsTheServersSpans: a traced remote job that fails
// still brings the server's spans home — the server ships them with a
// failure, and the adapter imports them under its dispatch span as it does
// for a result. A payload compiled before a recalibration fails
// stale_calibration after the server has queued it.
func TestRemoteFailureKeepsTheServersSpans(t *testing.T) {
	c, dev := testStack(t)
	adapter, _ := recordedAdapter(t, serveTest(t, c))
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 10, CalibrationEpoch: dev.CalibrationEpoch(), Timeline: telemetry.NewTimeline("", nil)}
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9)
	if _, err := adapter.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, opts); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("err = %v, want stale_calibration", err)
	}
	spans := opts.Timeline.Spans()
	var dispatch, wait *telemetry.Span
	for i := range spans {
		switch s := &spans[i]; {
		case s.Stage == telemetry.StageDispatch && !s.Remote:
			dispatch = s
		case s.Stage == telemetry.StageQueueWait:
			wait = s
		}
	}
	if dispatch == nil || wait == nil || !wait.Remote || wait.Parent != dispatch.ID {
		t.Fatalf("the failed job's timeline %+v lacks the server's queue-wait span, marked remote, under the dispatch span", spans)
	}
}
