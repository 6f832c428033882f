package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// SubmitBoundCtx is the tests' client for the server's bindings frame: it
// submits one sweep point of a compiled program, whose text ships once per
// pooled connection, named as a payload is by its text and the epoch it was
// lowered at; every point afterwards is a small bindings frame. Bindings
// are validated locally first, as the server validates them again.
func (r *RemoteAdapter) SubmitBoundCtx(ctx context.Context, device string, compiled *ptemplate.Compiled, b ptemplate.Bindings, opts SubmitOptions) (*qpi.Result, error) {
	if err := compiled.Validate(b); err != nil {
		return nil, err
	}
	return r.submit(ctx, device, wireProgram{text: compiled.Text(), params: compiled.Params, epoch: compiled.Epoch}, b, opts)
}

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
		if err := json.Unmarshal([]byte(f), &req); err != nil {
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
// recalibration is a different program on the wire. The adapter used to
// remember a template by its structure alone, so on a connection that had
// seen the template before, the re-lowered module was never sent: the server
// bound the old one, stamped with the new epoch, and the staleness gate
// passed — stale pulses, silently. Here the π amplitude is halved between
// two θ=π points, so stale pulses read P(1)≈1 and fresh ones ≈½; the reused
// connection must return what a fresh connection and a local sweep return on
// identically seeded stacks, and the program lowered before the
// recalibration must be refused as stale. The payload front gets the same
// pair of checks.
func TestRemoteRecalibrationOnOneConnection(t *testing.T) {
	const shots, seed = 4000, 47
	ctx := context.Background()
	opts := SubmitOptions{Shots: shots}
	pi := ptemplate.Bindings{"theta": math.Pi}
	halve := func(dev interface {
		CalibratedPiAmplitude(int) float64
		SetCalibratedPiAmplitude(int, float64)
	}) {
		dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)/2)
	}

	t.Run("bound", func(t *testing.T) {
		// Each stack runs the same two jobs, so the second draws the same seed.
		remoteSecond := func(t *testing.T, freshConnection bool) (*qpi.Result, *RemoteAdapter, *ptemplate.Compiled) {
			c, dev := sweepStack(t, seed)
			srv := serveTest(t, c)
			adapter, _ := recordedAdapter(t, srv)
			before, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", before, pi, opts); err != nil {
				t.Fatal(err)
			}
			halve(dev)
			after, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			if after.Epoch == before.Epoch {
				t.Fatalf("re-lowering kept epoch %d", before.Epoch)
			}
			if freshConnection {
				adapter, _ = recordedAdapter(t, srv)
			}
			res, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", after, pi, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, adapter, before
		}
		reused, adapter, stale := remoteSecond(t, false)
		fresh, _, _ := remoteSecond(t, true)

		c, dev := sweepStack(t, seed)
		if _, err := c.RunSweep(ctx, rabiSweepTemplate(t), "hpcqc-sc", []ptemplate.Bindings{pi}, opts); err != nil {
			t.Fatal(err)
		}
		halve(dev)
		local, err := c.RunSweep(ctx, rabiSweepTemplate(t), "hpcqc-sc", []ptemplate.Bindings{pi}, opts)
		if err != nil || local[0].Err != nil {
			t.Fatal(err, local[0].Err)
		}

		if p := fresh.Probability(1); math.Abs(p-0.5) > 0.1 {
			t.Fatalf("fresh connection after halving the π amplitude: P(1) = %g, want ≈ 0.5", p)
		}
		if !reflect.DeepEqual(reused.Counts, fresh.Counts) || !reflect.DeepEqual(reused.Counts, local[0].Result.Counts) {
			t.Fatalf("after a recalibration the reused connection ran different pulses:\nreused %v\nfresh  %v\nlocal  %v",
				reused.Counts, fresh.Counts, local[0].Result.Counts)
		}
		if _, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", stale, pi, opts); !errors.Is(err, qrm.ErrStaleCalibration) {
			t.Fatalf("program lowered before the recalibration: err = %v, want qrm.ErrStaleCalibration", err)
		}
	})

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
// its register frame and nowhere else. Every later job on it — through
// either front — is a submit frame of a small fixed size that names the
// program by ID.
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
	compiled, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	fronts := map[string]func(i int) error{
		"payload": func(int) error {
			_, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format,
				SubmitOptions{Shots: 8, CalibrationEpoch: dev.CalibrationEpoch()})
			return err
		},
		"bound": func(i int) error {
			_, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", compiled,
				ptemplate.Bindings{"theta": math.Pi / float64(i+3)}, SubmitOptions{Shots: 8})
			return err
		},
	}
	for name, submit := range fronts {
		for i := 0; i < 4; i++ {
			if err := submit(i); err != nil {
				t.Fatalf("%s job %d: %v", name, i, err)
			}
		}
		ops, frames := rc.take(t)
		if want := []string{"register", "submit", "submit", "submit", "submit"}; !reflect.DeepEqual(ops, want) {
			t.Fatalf("%s: four jobs on one program sent %v, want %v", name, ops, want)
		}
		if !strings.Contains(frames[0], "define void @") {
			t.Fatalf("%s: the register frame carries no program text:\n%s", name, frames[0])
		}
		for i, f := range frames[1:] {
			if len(f) > maxSubmitFrame || strings.Contains(f, "define void @") || strings.Contains(f, "program") {
				t.Fatalf("%s: submit %d is %d bytes (bound %d) or carries program text:\n%s", name, i, len(f), maxSubmitFrame, f)
			}
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
			if err := json.Unmarshal(lines.Bytes(), &req); err != nil {
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
		// A template's text sent as if it were concrete: a slot nobody declared.
		"undeclared slot": compiled.Text(),
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
	// Declared parameters that miss a slot of the text, on the template front.
	undeclared := &ptemplate.Compiled{Epoch: compiled.Epoch, Module: compiled.Module}
	if _, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", undeclared, nil, opts); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("template registered without its parameter: err = %v, want qdmi.ErrInvalidArgument", err)
	}
	if _, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", good, format, opts); err != nil {
		t.Fatalf("a good program after the bad ones: %v", err)
	}
	if _, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", compiled, ptemplate.Bindings{"theta": 1}, opts); err != nil {
		t.Fatalf("a good template after the bad ones: %v", err)
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

// requestLine renders one request as the server reads it.
func requestLine(t *testing.T, req remoteRequest) []byte {
	t.Helper()
	line, err := json.Marshal(req)
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
	resp := srv.handleLine(requestLine(t, remoteRequest{Op: "submit", ID: "p", Device: "hpcqc-sc", Shots: 16, TimeoutMs: 80}), store)
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
	resp := srv.handleLine(requestLine(t, remoteRequest{Op: "submit", ID: "p", Device: "hpcqc-sc", Shots: 16, TimeoutMs: 80, TraceID: "trace-timeout"}), store)
	select {
	case <-entered:
	default:
		t.Fatal("the job never reached the device")
	}
	if resp.ErrorKind != "deadline_exceeded" {
		t.Fatalf("timed-out job answered kind %q (%s), want deadline_exceeded", resp.ErrorKind, resp.Error)
	}
	var stages []string
	for _, s := range resp.Spans {
		stages = append(stages, s.Stage)
	}
	if !slices.Contains(stages, string(telemetry.StageDispatch)) {
		t.Fatalf("response spans %v lack the worker's dispatch span", stages)
	}
}

// TestLocalAndRemoteAgreeAtEveryMeasLevel: a job is the same job whichever
// side of the wire asks for it. On identically seeded stacks, a concrete
// kernel and a bound template point return identical counts, IQ points and
// raw traces locally and through a RemoteAdapter, at each measurement level.
func TestLocalAndRemoteAgreeAtEveryMeasLevel(t *testing.T) {
	const shots, seed = 24, 5
	ctx := context.Background()
	k := rotation(t, 1.1)
	point := ptemplate.Bindings{"theta": 2.2}
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		t.Run(level.String(), func(t *testing.T) {
			opts := SubmitOptions{Shots: shots, MeasLevel: level}

			local, _ := sweepStack(t, seed)
			wantKernel, err := local.RunCtx(ctx, k, "hpcqc-sc", opts)
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := local.RunSweep(ctx, rabiSweepTemplate(t), "hpcqc-sc", []ptemplate.Bindings{point}, opts)
			if err != nil || sweep[0].Err != nil {
				t.Fatal(err, sweep[0].Err)
			}
			wantPoint := sweep[0].Result

			served, _ := sweepStack(t, seed)
			adapter, _ := recordedAdapter(t, serveTest(t, served))
			payload, format, err := served.Compile(k, "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			gotKernel, err := adapter.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := served.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
			if err != nil {
				t.Fatal(err)
			}
			gotPoint, err := adapter.SubmitBoundCtx(ctx, "hpcqc-sc", compiled, point, opts)
			if err != nil {
				t.Fatal(err)
			}

			for name, pair := range map[string][2]*qpi.Result{
				"concrete kernel": {gotKernel, wantKernel}, "bound point": {gotPoint, wantPoint},
			} {
				got, want := pair[0], pair[1]
				if level != readout.LevelDiscriminated && len(want.IQ) == 0 {
					t.Fatalf("%s: the local %s job returned no IQ data", name, level)
				}
				if level == readout.LevelRaw && len(want.Raw) == 0 {
					t.Fatalf("%s: the local raw job returned no traces", name)
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
					t.Fatalf("%s: remote and local results differ\nremote counts %v\nlocal counts  %v", name, got.Counts, want.Counts)
				}
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
	line, err := json.Marshal(remoteResponse{Counts: counts, Shots: 16, DurationSeconds: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != golden {
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
