package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// recordingConn keeps every frame the adapter writes (one Write is one
// request line) and can be pointed at a fresh connection — what a reconnect,
// or a server restarted behind a relay, looks like from the server's side:
// the same adapter talking to an empty program store.
type recordingConn struct {
	net.Conn
	frames        []string
	readDeadlines int // SetReadDeadline calls
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.frames = append(c.frames, string(p))
	return c.Conn.Write(p)
}

func (c *recordingConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines++
	return c.Conn.SetReadDeadline(t)
}

// take returns the ops of the frames written since the last call, and the
// frames themselves.
func (c *recordingConn) take(t *testing.T) (ops []string, frames []string) {
	t.Helper()
	frames, c.frames = c.frames, nil
	for _, f := range frames {
		var req remoteRequest
		if err := parseRequest([]byte(f), &req); err != nil {
			t.Fatalf("adapter wrote a frame that is not a request: %v\n%s", err, f)
		}
		ops = append(ops, req.Op)
	}
	return ops, frames
}

func dialTest(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// recordedAdapter is a RemoteAdapter over a recordingConn to srv.
func recordedAdapter(t *testing.T, srv *Server) (*RemoteAdapter, *recordingConn) {
	t.Helper()
	rc := &recordingConn{Conn: dialTest(t, srv.Addr())}
	adapter := newRemoteAdapter(srv.Addr(), rc)
	t.Cleanup(adapter.Close)
	return adapter, rc
}

func serveTest(t *testing.T, c *Client, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer(c, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// rotation is a one-qubit kernel whose excited-state population shows the
// pulse amplitude it was lowered with.
func rotation(t *testing.T, theta float64) *qpi.Circuit {
	t.Helper()
	k := qpi.NewCircuit("rotation", 1, 1).RX(0, theta).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestRemoteRecalibrationOnOneConnection: a program lowered again after a
// recalibration is a different program on the wire, because its ID covers
// the calibration epoch as well as the text. Here the π amplitude is halved
// between two π rotations, so stale pulses read P(1)≈1 and fresh ones ≈½;
// the reused connection must return what a fresh connection and a local run
// return on identically seeded stacks, and the payload compiled before the
// recalibration must be refused as stale.
func TestRemoteRecalibrationOnOneConnection(t *testing.T) {
	const shots, seed = 4000, 47
	ctx := context.Background()
	opts := SubmitOptions{Shots: shots}
	halve := func(dev interface {
		CalibratedPiAmplitude(int) float64
		SetCalibratedPiAmplitude(int, float64)
	}) {
		dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)/2)
	}

	t.Run("payload", func(t *testing.T) {
		k := rotation(t, math.Pi)
		remoteSecond := func(t *testing.T, freshConnection bool) (*qpi.Result, func() error) {
			c, dev := sweepStack(t, seed)
			srv := serveTest(t, c)
			adapter, _ := recordedAdapter(t, srv)
			before, format, epoch, err := c.CompileTraced(k, "hpcqc-sc", nil)
			if err != nil {
				t.Fatal(err)
			}
			staleOpts := SubmitOptions{Shots: shots, CalibrationEpoch: epoch}
			if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", before, format, staleOpts); err != nil {
				t.Fatal(err)
			}
			halve(dev)
			after, format, epoch, err := c.CompileTraced(k, "hpcqc-sc", nil)
			if err != nil {
				t.Fatal(err)
			}
			if freshConnection {
				adapter, _ = recordedAdapter(t, srv)
			}
			res, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", after, format, SubmitOptions{Shots: shots, CalibrationEpoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			return res, func() error {
				_, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", before, format, staleOpts)
				return err
			}
		}
		reused, submitStale := remoteSecond(t, false)
		fresh, _ := remoteSecond(t, true)

		c, dev := sweepStack(t, seed)
		if _, err := c.RunCtx(ctx, k, "hpcqc-sc", opts); err != nil {
			t.Fatal(err)
		}
		halve(dev)
		local, err := c.RunCtx(ctx, k, "hpcqc-sc", opts)
		if err != nil {
			t.Fatal(err)
		}

		if p := fresh.Probability(1); math.Abs(p-0.5) > 0.1 {
			t.Fatalf("fresh connection after halving the π amplitude: P(1) = %g, want ≈ 0.5", p)
		}
		if !reflect.DeepEqual(reused.Counts, fresh.Counts) || !reflect.DeepEqual(reused.Counts, local.Counts) {
			t.Fatalf("after a recalibration the reused connection ran different pulses:\nreused %v\nfresh  %v\nlocal  %v",
				reused.Counts, fresh.Counts, local.Counts)
		}
		if err := submitStale(); !errors.Is(err, qrm.ErrStaleCalibration) {
			t.Fatalf("payload compiled before the recalibration: err = %v, want qrm.ErrStaleCalibration", err)
		}
	})
}

// TestRemoteProgramTextCrossesOnce: on a connection, a program's text is in
// its register frame and nowhere else. Every later job on it is a submit
// frame of a small fixed size that names the program by ID.
func TestRemoteProgramTextCrossesOnce(t *testing.T) {
	const maxSubmitFrame = 256
	c, dev := testStack(t)
	srv := serveTest(t, c)
	adapter, rc := recordedAdapter(t, srv)
	ctx := context.Background()

	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 8, CalibrationEpoch: dev.CalibrationEpoch()}
	for i := 0; i < 4; i++ {
		if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	ops, frames := rc.take(t)
	if want := []string{"register", "submit", "submit", "submit", "submit"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("four jobs on one program sent %v, want %v", ops, want)
	}
	if !strings.Contains(frames[0], "define void @") {
		t.Fatalf("the register frame carries no program text:\n%s", frames[0])
	}
	for i, f := range frames[1:] {
		if len(f) > maxSubmitFrame || strings.Contains(f, "define void @") || strings.Contains(f, "program") {
			t.Fatalf("submit %d is %d bytes (bound %d) or carries program text:\n%s", i, len(f), maxSubmitFrame, f)
		}
	}
}

// TestRemoteBackgroundExchangeReadsWithoutDeadlines: an exchange under a
// context that can never end reads blocking — it sets no read deadline —
// while one under a cancellable context polls it in deadline slices.
func TestRemoteBackgroundExchangeReadsWithoutDeadlines(t *testing.T) {
	c, dev := testStack(t)
	srv := serveTest(t, c)
	adapter, rc := recordedAdapter(t, srv)
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 8, CalibrationEpoch: dev.CalibrationEpoch()}
	for i := 0; i < 3; i++ {
		if _, err := adapter.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, opts); err != nil {
			t.Fatal(err)
		}
	}
	if rc.readDeadlines != 0 {
		t.Fatalf("three Background exchanges set %d read deadlines, want 0", rc.readDeadlines)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts); err != nil {
		t.Fatal(err)
	}
	if rc.readDeadlines < 2 {
		t.Fatalf("a cancellable exchange set %d read deadlines, want a slice and its clearing", rc.readDeadlines)
	}
}

// TestPayloadIDIsFNV64a: the wire ID of exchange text is
// "txt-<FNV-1a 64, 16 hex digits>-<length>@<epoch>", the ID a server and
// an adapter of any version agree on.
func TestPayloadIDIsFNV64a(t *testing.T) {
	for _, tc := range []struct {
		payload string
		epoch   int64
	}{{"", 0}, {"a", 1}, {"define void @main() {}\n", 42}, {strings.Repeat("qir ", 999), 1 << 40}, {"\x00\xff", -3}} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(tc.payload))
		want := fmt.Sprintf("txt-%016x-%d@%d", h.Sum64(), len(tc.payload), tc.epoch)
		if got := payloadID([]byte(tc.payload), tc.epoch); got != want {
			t.Fatalf("payloadID(%q, %d) = %q, want %q", tc.payload, tc.epoch, got, want)
		}
	}
}

// TestPayloadIDMemo: a connection derives a payload's ID from the bytes it
// is handed each time — the same text at the same epoch reuses the ID it
// remembered, while another epoch, other bytes of the same length, or the
// caller's own buffer rewritten in place after the call all get the ID
// payloadID computes afresh.
func TestPayloadIDMemo(t *testing.T) {
	near, far := net.Pipe()
	adapter := newRemoteAdapter("pipe", near)
	defer adapter.Close()
	var ids []string
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer far.Close()
		lines := bufio.NewScanner(far)
		lines.Buffer(nil, 1<<20)
		for lines.Scan() {
			var req remoteRequest
			if err := parseRequest(lines.Bytes(), &req); err != nil {
				return
			}
			reply := "{}\n"
			if req.Op == "submit" {
				ids = append(ids, req.ID)
				reply = `{"counts":{"0":1},"shots":1,"duration_seconds":0}` + "\n"
			}
			if _, err := far.Write([]byte(reply)); err != nil {
				return
			}
		}
	}()
	payload := []byte("define void @m() #0 {\n}\n")
	var want []string
	submit := func(epoch int64) {
		t.Helper()
		want = append(want, payloadID(payload, epoch))
		if _, err := adapter.SubmitPayloadCtx(context.Background(), "dev", payload, qdmi.FormatQIRBase, SubmitOptions{Shots: 1, CalibrationEpoch: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	submit(1)
	submit(1)
	submit(2)
	payload[0] = 'D' // same length, other bytes, rewritten in the caller's buffer
	submit(2)
	adapter.Close()
	<-served
	if !reflect.DeepEqual(ids, want) || ids[0] != ids[1] || ids[1] == ids[2] || ids[2] == ids[3] {
		t.Fatalf("submits named %q, want %q", ids, want)
	}
}

// variants returns n texts of one program that differ in a trailing comment:
// n programs as far as the wire is concerned, for the price of one compile.
func variants(payload []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = append(append([]byte(nil), payload...), fmt.Sprintf("; variant %d\n", i)...)
	}
	return out
}

// TestRemoteUnknownProgramRecovers: the adapter's memory of what it sent is
// a hint. When the server no longer holds a program the adapter believes it
// registered — evicted from the bounded per-connection store, or gone with
// the connection the adapter's bytes now reach a server through — the submit
// comes back unknown_program, and the adapter registers the program and
// submits again, once, without the caller seeing any of it.
func TestRemoteUnknownProgramRecovers(t *testing.T) {
	c, dev := testStack(t)
	srv := serveTest(t, c)
	adapter, rc := recordedAdapter(t, srv)
	payload, format, err := c.Compile(rotation(t, 1), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 2, CalibrationEpoch: dev.CalibrationEpoch()}
	programs := variants(payload, maxStoredPrograms+2)
	submit := func(i int) []string {
		t.Helper()
		if _, err := adapter.SubmitPayloadCtx(context.Background(), "hpcqc-sc", programs[i], format, opts); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		ops, _ := rc.take(t)
		return ops
	}
	first, recovered := []string{"register", "submit"}, []string{"submit", "register", "submit"}

	// Fill the server's store, then push program 1 out of it while the
	// adapter still remembers sending it: registering program 64 evicts
	// program 0 (and the full hint is dropped), program 1 is registered
	// again but keeps its age on the server, and program 65 evicts it.
	for i := 0; i < maxStoredPrograms; i++ {
		if ops := submit(i); !reflect.DeepEqual(ops, first) {
			t.Fatalf("program %d sent %v, want %v", i, ops, first)
		}
	}
	for _, i := range []int{maxStoredPrograms, 1, maxStoredPrograms + 1} {
		if ops := submit(i); !reflect.DeepEqual(ops, first) {
			t.Fatalf("program %d sent %v, want %v", i, ops, first)
		}
	}
	if ops := submit(1); !reflect.DeepEqual(ops, recovered) {
		t.Fatalf("evicted program sent %v, want %v", ops, recovered)
	}
	if ops := submit(1); !reflect.DeepEqual(ops, []string{"submit"}) {
		t.Fatalf("program registered again sent %v, want one submit", ops)
	}
	if len(adapter.idle) != 1 {
		t.Fatalf("serial submissions left %d idle connections, want the one", len(adapter.idle))
	}
	if n := len(adapter.idle[0].registered); n > maxStoredPrograms {
		t.Fatalf("the connection remembers %d programs, bound %d", n, maxStoredPrograms)
	}

	// The same bytes now reach a connection the server has never seen.
	rc.Conn.Close()
	rc.Conn = dialTest(t, srv.Addr())
	if ops := submit(1); !reflect.DeepEqual(ops, recovered) {
		t.Fatalf("after a reconnect the program sent %v, want %v", ops, recovered)
	}
}

// TestRemoteUnknownProgramTwiceIsAnError: a server that answers
// unknown_program to the retry as well gets no third attempt; the caller
// gets the error.
func TestRemoteUnknownProgramTwiceIsAnError(t *testing.T) {
	near, far := net.Pipe()
	adapter := newRemoteAdapter("pipe", near)
	defer adapter.Close()
	var ops []string
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer far.Close()
		lines := bufio.NewScanner(far)
		lines.Buffer(nil, 1<<20)
		for lines.Scan() {
			var req remoteRequest
			if err := parseRequest(lines.Bytes(), &req); err != nil {
				return
			}
			ops = append(ops, req.Op)
			reply := "{}\n"
			if req.Op == "submit" {
				reply = `{"error":"never heard of it","error_kind":"unknown_program"}` + "\n"
			}
			if _, err := far.Write([]byte(reply)); err != nil {
				return
			}
		}
	}()
	_, err := adapter.SubmitPayloadCtx(context.Background(), "dev", []byte("text"), qdmi.FormatQIRBase, SubmitOptions{Shots: 1})
	if !errors.Is(err, errUnknownProgram) {
		t.Fatalf("err = %v, want the server's unknown_program", err)
	}
	adapter.Close()
	<-served
	if want := []string{"register", "submit", "register", "submit"}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("the adapter sent %v, want %v", ops, want)
	}
}

// TestRemoteRegisterRejectsBadPrograms: what cannot run fails when it is
// registered, typed, and costs the connection nothing — the next good
// program goes through, and the bad one is not remembered as sent.
func TestRemoteRegisterRejectsBadPrograms(t *testing.T) {
	c, _ := testStack(t)
	srv := serveTest(t, c)
	adapter, rc := recordedAdapter(t, srv)
	ctx := context.Background()
	opts := SubmitOptions{Shots: 8}

	good, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	unverifiable := bytes.Replace(good, []byte(`"required_num_ports"="`), []byte(`"required_num_ports"="9`), 1)
	for name, text := range map[string][]byte{
		"not a program":   []byte("garbage"),
		"does not verify": unverifiable,
		// A template's text sent as if it were concrete.
		"text with slots": compiled.Text(),
	} {
		for attempt := 0; attempt < 2; attempt++ {
			_, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", text, format, opts)
			if !errors.Is(err, qdmi.ErrInvalidArgument) {
				t.Fatalf("%s: err = %v, want qdmi.ErrInvalidArgument", name, err)
			}
			if ops, _ := rc.take(t); !reflect.DeepEqual(ops, []string{"register"}) {
				t.Fatalf("%s, attempt %d: sent %v, want the register frame alone", name, attempt, ops)
			}
		}
	}
	if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", good, format, opts); err != nil {
		t.Fatalf("a good program after the bad ones: %v", err)
	}
	if ops, _ := rc.take(t); !reflect.DeepEqual(ops, []string{"register", "submit"}) {
		t.Fatalf("the good program after the bad ones sent %v, want register and submit", ops)
	}
}

// TestServerRegisterRejectsNonFiniteDouble: program text whose gate angle
// is NaN or infinite is refused at register as invalid_argument, so no
// submit can run it.
func TestServerRegisterRejectsNonFiniteDouble(t *testing.T) {
	c, _ := testStack(t)
	srv := serveTest(t, c)
	for _, angle := range []string{"NaN", "+Inf", "-Inf"} {
		text := "define void @m() #0 {\nentry:\n" +
			"  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 0 to %Qubit*))\n" +
			"  call void @__quantum__qis__rz__body(double " + angle + ", %Qubit* inttoptr (i64 0 to %Qubit*))\n" +
			"  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 0 to %Qubit*))\n" +
			"  call void @__quantum__qis__mz__body(%Qubit* inttoptr (i64 0 to %Qubit*), %Result* inttoptr (i64 0 to %Result*))\n" +
			"  ret void\n}\n" +
			`attributes #0 = { "entry_point" "qir_profiles"="base" "required_num_qubits"="1" "required_num_results"="1" "required_num_ports"="0" }` + "\n"
		store := &programStore{byID: map[string]*ptemplate.Compiled{}}
		resp := srv.handleLine(requestLine(t, remoteRequest{Op: "register", ID: "p", Program: text}), store)
		if resp.ErrorKind != "invalid_argument" {
			t.Fatalf("rz(%s): register answered kind %q (%s), want invalid_argument", angle, resp.ErrorKind, resp.Error)
		}
		if err := errorFromWire(resp.ErrorKind, resp.Error); !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Fatalf("rz(%s): rebuilt error %v is not qdmi.ErrInvalidArgument", angle, err)
		}
		if _, kept := store.byID["p"]; kept {
			t.Fatalf("rz(%s): the refused program was stored", angle)
		}
	}
}

// requestLine is one request frame, newline included, as the adapter
// writes it.
func requestLine(t *testing.T, req remoteRequest) []byte {
	t.Helper()
	line, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// TestServerTimeoutMsIsATypedDeadline: a job the client's shipped budget
// ends on the server answers deadline_exceeded, which the adapter turns back
// into context.DeadlineExceeded. The request goes straight to the server's
// handler so that no client-side deadline can answer first. (The server's
// own job-time cap is TestServerMaxJobTime.)
func TestServerTimeoutMsIsATypedDeadline(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)
	srv := serveTest(t, c)
	payload, _, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	// Park the worker so the remote job cannot finish in time.
	if _, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 16}); err != nil {
		t.Fatal(err)
	}
	<-entered

	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
	if resp := srv.handleLine(requestLine(t, remoteRequest{Op: "register", ID: "p", Program: string(payload)}), store); resp.Error != "" {
		t.Fatalf("register: %s", resp.Error)
	}
	resp := srv.handleLine(requestLine(t, remoteRequest{Op: "submit", ID: "p", Device: "hpcqc-sc", TimeoutMs: 80, SubmitOptions: SubmitOptions{Shots: 16}}), store)
	if resp.ErrorKind != "deadline_exceeded" {
		t.Fatalf("timed-out job answered kind %q (%s), want deadline_exceeded", resp.ErrorKind, resp.Error)
	}
	if err := errorFromWire(resp.ErrorKind, resp.Error); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("rebuilt error %v does not match context.DeadlineExceeded", err)
	}
}

// TestServerTimeoutMsWhileRunning: when the shipped budget ends a job a
// worker is already running, the handler answers only after the worker has
// resolved the ticket, so the dispatch span it writes on the way out is in
// the response to a traced submit and never read while being written (run
// under -race).
func TestServerTimeoutMsWhileRunning(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)
	srv := serveTest(t, c)
	payload, _, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
	if resp := srv.handleLine(requestLine(t, remoteRequest{Op: "register", ID: "p", Program: string(payload)}), store); resp.Error != "" {
		t.Fatalf("register: %s", resp.Error)
	}
	// The gate holds the remote job itself: it is running on the worker
	// when its deadline fires.
	resp := srv.handleLine(requestLine(t, remoteRequest{Op: "submit", ID: "p", Device: "hpcqc-sc", TimeoutMs: 80,
		SubmitOptions: SubmitOptions{Shots: 16, TraceID: "trace-timeout"}}), store)
	select {
	case <-entered:
	default:
		t.Fatal("the job never reached the device")
	}
	if resp.ErrorKind != "deadline_exceeded" {
		t.Fatalf("timed-out job answered kind %q (%s), want deadline_exceeded", resp.ErrorKind, resp.Error)
	}
	var stages []telemetry.Stage
	for _, s := range resp.Spans {
		stages = append(stages, s.Stage)
	}
	if !slices.Contains(stages, telemetry.StageDispatch) {
		t.Fatalf("response spans %v lack the worker's dispatch span", stages)
	}
}

// TestRemoteJobDeadlineShipsAsTimeout: SubmitOptions.Deadline bounds a
// remote job as a ctx deadline does. The earlier of the two ships as
// timeout_ms, and a job the deadline ends while a gated device holds the
// worker answers deadline_exceeded.
func TestRemoteJobDeadlineShipsAsTimeout(t *testing.T) {
	c, _ := testStack(t)
	release, entered := blockGate(c)
	defer close(release)
	adapter, rc := recordedAdapter(t, serveTest(t, c))
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCtx(context.Background(), bell(t), "hpcqc-sc", SubmitOptions{Shots: 16}); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, SubmitOptions{Shots: 16, Deadline: time.Now().Add(100 * time.Millisecond)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the job's deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the job outlived its deadline by seconds")
	}
	_, frames := rc.take(t)
	var req remoteRequest
	if err := parseRequest([]byte(frames[len(frames)-1]), &req); err != nil || req.Op != "submit" || req.TimeoutMs < 1 || req.TimeoutMs > 100 {
		t.Fatalf("submit frame %q ships timeout_ms %d, want the deadline's budget of at most 100 (%v)", frames[len(frames)-1], req.TimeoutMs, err)
	}
}

// TestRemotePassedJobDeadlineSendsNothing: a job whose Deadline has passed
// fails with context.DeadlineExceeded before a frame is written, as a local
// submission does.
func TestRemotePassedJobDeadlineSendsNothing(t *testing.T) {
	c, _ := testStack(t)
	adapter, rc := recordedAdapter(t, serveTest(t, c))
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 16, Deadline: time.Now().Add(-time.Millisecond)}
	if _, err := adapter.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ops, _ := rc.take(t); len(ops) != 0 {
		t.Fatalf("a job past its deadline sent %v", ops)
	}
}

// TestServerEndsItsJobsInFlight: a job a gated device holds is ended when
// the server stops — by Close or a cancelled base context, which cancel it,
// or by the base context's deadline, which is the job's own — and its
// caller hears how, before the server hangs up. Nothing is left running.
func TestServerEndsItsJobsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // of the base context; 0 for none
		stop    func(*Server, context.CancelFunc)
		want    error
	}{
		{"close", 0, func(srv *Server, _ context.CancelFunc) { srv.Close() }, qrm.ErrCancelled},
		{"cancelled base context", 0, func(_ *Server, cancel context.CancelFunc) { cancel() }, qrm.ErrCancelled},
		{"base context deadline", 500 * time.Millisecond, func(*Server, context.CancelFunc) {}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testStack(t)
			release, entered := blockGate(c)
			defer close(release)
			payload, format, err := c.Compile(bell(t), "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			base, cancel := context.WithCancel(context.Background())
			if tc.timeout > 0 {
				base, cancel = context.WithTimeout(context.Background(), tc.timeout)
			}
			defer cancel()
			srv := serveTest(t, c, WithServerBaseContext(base))
			adapter, _ := recordedAdapter(t, srv)
			done := make(chan error, 1)
			go func() {
				_, err := adapter.SubmitPayloadCtx(context.Background(), "hpcqc-sc", payload, format, SubmitOptions{Shots: 16})
				done <- err
			}()
			<-entered
			tc.stop(srv, cancel)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) || (tc.want != context.DeadlineExceeded && errors.Is(err, context.DeadlineExceeded)) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the job outlived the server")
			}
			srv.Close()
		})
	}
}

// TestLocalAndRemoteAgreeAtEveryMeasLevel: a job is the same job whichever
// side of the wire asks for it. On identically seeded stacks, a concrete
// kernel returns identical counts, IQ points and raw traces locally and
// through a RemoteAdapter, at each measurement level.
func TestLocalAndRemoteAgreeAtEveryMeasLevel(t *testing.T) {
	const shots, seed = 24, 5
	ctx := context.Background()
	k := rotation(t, 1.1)
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		t.Run(level.String(), func(t *testing.T) {
			opts := SubmitOptions{Shots: shots, MeasLevel: level}

			local, _ := sweepStack(t, seed)
			want, err := local.RunCtx(ctx, k, "hpcqc-sc", opts)
			if err != nil {
				t.Fatal(err)
			}

			served, _ := sweepStack(t, seed)
			adapter, _ := recordedAdapter(t, serveTest(t, served))
			payload, format, err := served.Compile(k, "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			got, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts)
			if err != nil {
				t.Fatal(err)
			}

			if level != readout.LevelDiscriminated && len(want.IQ) == 0 {
				t.Fatalf("the local %s job returned no IQ data", level)
			}
			if level == readout.LevelRaw && len(want.Raw) == 0 {
				t.Fatal("the local raw job returned no traces")
			}
			// The acquisition records exist at the levels that ask for them.
			same := reflect.DeepEqual(got.Counts, want.Counts)
			if level != readout.LevelDiscriminated {
				same = same && reflect.DeepEqual(got.Bits, want.Bits) && reflect.DeepEqual(got.IQ, want.IQ)
			}
			if level == readout.LevelRaw {
				same = same && reflect.DeepEqual(got.Raw, want.Raw)
			}
			if !same {
				t.Fatalf("remote and local results differ\nremote counts %v\nlocal counts  %v", got.Counts, want.Counts)
			}
		})
	}
}

// TestResultFromWireCountsKeys pins the counts decoder to whole decimal
// uint64 keys: anything else in a server's response fails the decode, never
// a silently truncated bitmask.
func TestResultFromWireCountsKeys(t *testing.T) {
	for _, tc := range []struct {
		key  string
		mask uint64
		ok   bool
	}{
		{"0", 0, true},
		{"3", 3, true},
		{"12abc", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{" 3", 0, false},
		{"18446744073709551616", 0, false}, // 2^64
	} {
		line := fmt.Sprintf(`{"counts":{%q:7},"shots":7}`, tc.key)
		resp, err := decodeResponse([]byte(line))
		if !tc.ok {
			if err == nil {
				t.Errorf("key %q: decoded, want an error", tc.key)
			}
			continue
		}
		if err != nil {
			t.Errorf("key %q: %v", tc.key, err)
			continue
		}
		if res, err := resultFromWire(resp, SubmitOptions{}); err != nil {
			t.Errorf("key %q: %v", tc.key, err)
		} else if res.Counts[tc.mask] != 7 || len(res.Counts) != 1 {
			t.Errorf("key %q: counts = %v, want {%d: 7}", tc.key, res.Counts, tc.mask)
		}
	}
}

// TestResponseCountsGolden: the counts cross the wire as the result's own
// map, and the bytes are the ones a server that spelled each key with
// fmt.Sprintf wrote — decimal keys, sorted as strings — so adapters on
// either side of that change read each other.
func TestResponseCountsGolden(t *testing.T) {
	const golden = `{"counts":{"0":3,"1":5,"10":2,"2":6},"shots":16,"duration_seconds":0.000001}`
	counts := map[uint64]int{0: 3, 1: 5, 2: 6, 10: 2}
	line, err := appendResponse(nil, &remoteResponse{Result: readout.Result{Counts: counts, Shots: 16, DurationSeconds: 1e-6}})
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != golden+"\n" {
		t.Fatalf("response line\n%s\nwant\n%s", line, golden)
	}
	resp, err := decodeResponse(line)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resultFromWire(resp, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Counts, counts) {
		t.Fatalf("decoded counts %v, want %v", res.Counts, counts)
	}
}

// TestServerSkipsAnOlderClientsTag: a submit frame from a client that still
// sends the job tag, which the wire no longer carries, decodes with the key
// skipped and runs.
func TestServerSkipsAnOlderClientsTag(t *testing.T) {
	c, _ := testStack(t)
	conn := dialTest(t, serveTest(t, c).Addr())
	defer conn.Close()
	payload, _, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	register, err := appendRequest(nil, &remoteRequest{Op: "register", ID: "bell", Program: string(payload)})
	if err != nil {
		t.Fatal(err)
	}
	submit := `{"op":"submit","id":"bell","device":"hpcqc-sc","shots":16,"tag":"calibration"}` + "\n"
	lines := bufio.NewScanner(conn)
	for _, frame := range [][]byte{register, []byte(submit)} {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if !lines.Scan() {
			t.Fatalf("no response: %v", lines.Err())
		}
	}
	resp, err := decodeResponse(lines.Bytes())
	if err != nil || resp.Error != "" || resp.Shots != 16 {
		t.Fatalf("submit with a tag: %+v, %v", resp, err)
	}
}
