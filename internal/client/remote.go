package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// The remote protocol is one JSON object per line in each direction —
// the REST-like submission path of Fig. 2, reduced to its essentials — and
// it carries one thing: a compiled program, as its concrete exchange text.
// The text crosses once per connection: "register" ships it under an ID
// with its calibration epoch, and the server parses, verifies and keeps it.
// Every job afterwards is a "submit" naming that ID, with the job's
// SubmitOptions. "telemetry" fetches the server's metrics. Deadlines cross
// the machine boundary: the adapter ships what is left of the earlier of
// the ctx deadline and SubmitOptions.Deadline as timeout_ms, and the server
// bounds the job with it. ARCHITECTURE.md has the field table; wirecodec.go writes
// and reads the frames.

// maxStoredPrograms bounds the programs a server keeps per connection (the
// oldest registration goes first) and the IDs an adapter remembers having
// sent. Neither side needs the other's view to be right: a submit that
// names an ID the server does not hold answers unknown_program, and the
// adapter registers and retries.
const maxStoredPrograms = 64

// maxFrameBytes bounds one line of the protocol in either direction. The
// side that reads a longer one answers (server) or fails (adapter) with
// ErrTooLarge and gives the connection up: what follows an abandoned line
// cannot be told from the start of the next.
const maxFrameBytes = 1 << 24

// remoteRequest is the wire form of a request: the wire's own fields and,
// for "submit", the job's SubmitOptions. Only the codec (wirecodec.go)
// spells a frame, and of the options it carries the pool, shots, priority,
// measurement level and return, and trace ID; the deadline crosses as
// TimeoutMs.
type remoteRequest struct {
	// Op selects the request kind: "register", "submit" or "telemetry".
	Op string
	// ID names a program on this connection. The adapter derives it from a
	// hash of the program's text and its calibration epoch, so a program
	// re-lowered after a recalibration is a different program on the wire.
	ID string

	// Program and Epoch are the body of "register": the concrete exchange
	// text, and the calibration epoch the program was lowered at. The server
	// checks every job on the program against that epoch and rejects it with
	// stale_calibration once the target has recalibrated past it; zero
	// disables the check.
	Program string
	Epoch   int64

	Device string
	// TimeoutMs bounds the job server-side; 0 means no client deadline.
	TimeoutMs int64
	// A TraceID propagates the submission's telemetry trace across the
	// wire: the server records its lifecycle spans under this ID and
	// returns them in the response, so the client-side timeline covers
	// both machines. Without one the server returns no spans.
	SubmitOptions
}

// remoteResponse is the wire form of an answer: a failure, a job's result,
// or the server's telemetry.
type remoteResponse struct {
	Error string
	// ErrorKind carries the machine-readable class of Error across the
	// wire ("overloaded", "no_such_target"), so the adapter can rebuild
	// the typed sentinels and callers can back off with errors.Is.
	ErrorKind string
	readout.Result
	// Spans carries the server-side lifecycle spans of the submission
	// (queue-wait, dispatch, bind, device-execute, ...) back to a client
	// that sent a trace ID, failed or not, which imports them under its own
	// dispatch span so one timeline covers the whole round trip.
	Spans []telemetry.Span
	// Telemetry is the server's fleet metrics snapshot (op "telemetry").
	Telemetry json.RawMessage
}

// ServerOption tunes a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	baseCtx    context.Context
	maxJobTime time.Duration
}

// WithServerBaseContext bounds every job the server runs: cancelling ctx
// cancels all in-flight remote jobs (on top of Close, which always does).
func WithServerBaseContext(ctx context.Context) ServerOption {
	return func(c *serverConfig) { c.baseCtx = ctx }
}

// WithServerMaxJobTime caps each remote job's wall-clock time regardless
// of the client-requested timeout.
func WithServerMaxJobTime(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.maxJobTime = d }
}

// Server exposes a client's devices over TCP for remote submission.
type Server struct {
	client *Client
	ln     net.Listener
	cfg    serverConfig
	ctx    context.Context // cancelled on Close
	cancel context.CancelFunc
	// jobCtx is ctx without its end: jobs are submitted and waited for
	// under it, and serve ends the job in flight on each connection when
	// ctx ends, so no job hooks onto ctx itself.
	jobCtx context.Context
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port). Options tune the jobs' base context and time bound.
func NewServer(c *Client, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newServer(c, ln, opts...)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newServer builds the Server of c on ln with opts applied, accepting
// nothing yet. ln may be nil for a caller that hands connections to serve,
// or lines to handleLine, itself; such a server is ended by its cancel,
// not Close.
func newServer(c *Client, ln net.Listener, opts ...ServerOption) *Server {
	//lint:mqssvet disable=ctxflow the default base context is overridable via WithServerBaseContext; Background is the documented fallback
	cfg := serverConfig{baseCtx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	ctx, cancel := context.WithCancel(cfg.baseCtx)
	return &Server{client: c, ln: ln, cfg: cfg, ctx: ctx, cancel: cancel, jobCtx: context.WithoutCancel(ctx)}
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, cancels in-flight jobs, and waits for
// connections to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.cancel()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	// Registered programs are scoped to the connection: the store dies with
	// it, so a reconnecting adapter re-registers (and a restarted server can
	// never run a program it did not parse itself).
	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
	// When the server stops, reads end at once and the answer being
	// written, or that of the job in flight, which is cancelled, has
	// stopGrace to leave.
	stop := context.AfterFunc(s.ctx, func() {
		_ = conn.SetReadDeadline(time.Now())
		_ = conn.SetWriteDeadline(time.Now().Add(stopGrace))
		if tk := store.job.Load(); tk != nil && s.cancelled() {
			tk.Cancel()
		}
	})
	defer stop()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 1<<20), maxFrameBytes)
	var out []byte // the response frame, written into the same buffer each time
	respond := func(resp remoteResponse) error {
		var err error
		if out, err = appendResponse(out[:0], &resp); err != nil {
			return err
		}
		_, err = conn.Write(out)
		return err
	}
	for {
		if s.ctx.Err() != nil {
			return // stopped: nothing more is read
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				_ = respond(failure(fmt.Errorf("%w: request line over %d bytes", ErrTooLarge, maxFrameBytes)))
			}
			return
		}
		if respond(s.handleLine(scanner.Bytes(), store)) != nil {
			return
		}
	}
}

// stopGrace is how long a connection's last answer may take to leave once
// the server has stopped.
const stopGrace = time.Second

// cancelled reports whether the server stopped by Close or by a cancelled
// base context. A base context's deadline ends no job through it: that
// deadline is every job's Deadline already, which ends it deadline_exceeded.
func (s *Server) cancelled() bool { return errors.Is(s.ctx.Err(), context.Canceled) }

// programStore is one connection's registered programs, at most
// maxStoredPrograms of them, and the ticket of the job it has in flight.
type programStore struct {
	byID map[string]*ptemplate.Compiled
	// order lists the IDs oldest registration first.
	order []string
	job   atomic.Pointer[qrm.Ticket]
}

// put stores p under id, evicting the oldest registration when the store is
// full. Registering an ID again replaces its program and keeps its age.
func (st *programStore) put(id string, p *ptemplate.Compiled) {
	if _, ok := st.byID[id]; !ok {
		if len(st.order) == maxStoredPrograms {
			delete(st.byID, st.order[0])
			st.order = st.order[:copy(st.order, st.order[1:])]
		}
		st.order = append(st.order, id)
	}
	st.byID[id] = p
}

// failure is the response for a request that ended in err, typed for the
// wire where err wraps a sentinel errorKind knows.
func failure(err error) remoteResponse {
	return remoteResponse{Error: err.Error(), ErrorKind: errorKind(err)}
}

// handleLine answers one request line against the connection's store.
func (s *Server) handleLine(line []byte, store *programStore) remoteResponse {
	var req remoteRequest
	if err := parseRequest(line, &req); err != nil {
		return failure(fmt.Errorf("%w: malformed request: %v", qdmi.ErrInvalidArgument, err))
	}
	switch req.Op {
	case "register":
		if req.ID == "" {
			return failure(fmt.Errorf("%w: register without a program id", qdmi.ErrInvalidArgument))
		}
		// Parsed, verified and checked to be concrete here, once; every submit
		// that names the ID runs the stored module.
		program, err := ptemplate.FromText(req.Program, req.Epoch)
		if err != nil {
			return failure(err)
		}
		store.put(req.ID, program)
		return remoteResponse{}
	case "submit":
		return s.handleSubmit(&req, store)
	case "telemetry":
		snap, err := json.Marshal(s.client.Telemetry())
		if err != nil {
			return remoteResponse{Error: "telemetry snapshot: " + err.Error()}
		}
		return remoteResponse{Telemetry: snap}
	default:
		return failure(fmt.Errorf("%w: unknown op %q", qdmi.ErrInvalidArgument, req.Op))
	}
}

// handleSubmit runs one job on a registered program: the frame's
// SubmitOptions and the stored program go through Client.enqueue, so the
// job is the request a local job makes. timeout_ms, capped by
// WithServerMaxJobTime and by the base context's deadline, is the job's
// Deadline.
func (s *Server) handleSubmit(req *remoteRequest, store *programStore) remoteResponse {
	program, ok := store.byID[req.ID]
	if !ok {
		return failure(fmt.Errorf("%w: %q", errUnknownProgram, req.ID))
	}
	opts := req.SubmitOptions
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if s.cfg.maxJobTime > 0 && (timeout <= 0 || s.cfg.maxJobTime < timeout) {
		timeout = s.cfg.maxJobTime
	}
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	if dl, ok := s.ctx.Deadline(); ok && (opts.Deadline.IsZero() || dl.Before(opts.Deadline)) {
		opts.Deadline = dl
	}
	// The server-side timeline feeds the server's own fleet registry. A
	// caller that traces — one that sent a trace ID — has it share that ID
	// and gets its spans back with the response, so the client-side
	// timeline covers both machines; for any other caller it carries no ID.
	var tl *telemetry.Timeline
	if opts.TraceID != "" {
		tl = s.client.NewTimeline(opts.TraceID)
	} else {
		tl = telemetry.NewUntracedTimeline(s.client.telem)
	}
	tk, err := s.client.enqueue(s.jobCtx, program, nil, req.Device, opts, tl)
	var resp remoteResponse
	if err == nil {
		store.job.Store(tk)
		if s.cancelled() {
			tk.Cancel() // the server stopped before serve could see the job
		}
		var res *qdmi.Result
		if res, err = tk.Wait(s.jobCtx); err == nil {
			resp.Result = *res
		}
		store.job.Store(nil)
	}
	if err != nil {
		resp = failure(err)
	}
	if opts.TraceID != "" {
		resp.Spans = tl.Spans()
	}
	return resp
}

// errUnknownProgram is the server's answer to a submit naming an ID its
// connection does not hold; the adapter reacts by registering the program
// and retrying once, so callers see it only if that fails too.
var errUnknownProgram = errors.New("program not registered on this connection")

// ErrTooLarge is wrapped into the failure of an exchange whose request or
// response line would pass maxFrameBytes (raw-level IQ for many shots gets
// there). A line that was already on the wire costs the connection; program
// text refused before sending does not.
var ErrTooLarge = errors.New("client: wire frame too large")

// wireErrorKinds is the one place a wire error kind is spelled: each row
// pairs the error_kind string with the sentinel it stands for, so whatever
// the server can encode the adapter can decode. Order matters to errorKind
// only where one error wraps two sentinels: a job its deadline ended is
// both deadline_exceeded and cancelled, and the deadline is what the caller
// has to hear. ARCHITECTURE.md documents the kinds;
// TestWireErrorKindRoundTrip checks every row and that every exported
// sentinel of the layers below has one.
var wireErrorKinds = []struct {
	kind     string
	sentinel error
}{
	{"deadline_exceeded", context.DeadlineExceeded},
	{"unknown_program", errUnknownProgram},
	{"too_large", ErrTooLarge},
	{"overloaded", qrm.ErrOverloaded},
	{"no_such_target", qrm.ErrNoSuchTarget},
	{"stale_calibration", qrm.ErrStaleCalibration},
	{"bad_param", ptemplate.ErrBadParam},
	{"cancelled", qrm.ErrCancelled},
	{"not_supported", qdmi.ErrNotSupported},
	{"invalid_argument", qdmi.ErrInvalidArgument},
	{"fatal", qdmi.ErrFatal},
}

// errorKind classifies an error for the wire, so typed sentinels survive
// the machine boundary: the first row whose sentinel err wraps, or "".
func errorKind(err error) string {
	for _, k := range wireErrorKinds {
		if errors.Is(err, k.sentinel) {
			return k.kind
		}
	}
	return ""
}

// remoteError is a failure the server reported: its text is the server's
// message, which already states the sentinel, and it unwraps to the
// sentinel its kind names (none for an unknown or empty kind).
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// errorFromWire rebuilds a typed submission error from the wire fields.
func errorFromWire(kind, msg string) error {
	for _, k := range wireErrorKinds {
		if k.kind == kind {
			return &remoteError{msg: msg, sentinel: k.sentinel}
		}
	}
	return &remoteError{msg: msg}
}

// RemoteOption tunes a RemoteAdapter.
type RemoteOption func(*remoteConfig)

type remoteConfig struct {
	dialTimeout time.Duration
}

// WithDialTimeout bounds connection establishment.
func WithDialTimeout(d time.Duration) RemoteOption {
	return func(c *remoteConfig) { c.dialTimeout = d }
}

// maxConns bounds the connections a RemoteAdapter holds open at once, and so
// its exchanges in flight: each runs alone on one connection. A caller past
// the cap waits, under its own ctx, for an exchange to give one back.
const maxConns = 4

// errAdapterClosed is the failure of every exchange after Close.
var errAdapterClosed = errors.New("client: remote adapter closed")

// RemoteAdapter submits compiled payloads to a remote MQSS client over TCP.
// Concurrent callers run their exchanges side by side, each on a connection
// of a small pool: one line-framed round trip at a time per connection, as
// the server reads them.
type RemoteAdapter struct {
	addr   string
	span   string // the dispatch span's device label, "remote:" + addr
	dialer net.Dialer
	// slots holds one token per connection the pool may still use; an
	// exchange takes one before it takes or dials a connection and gives it
	// back after, so at most maxConns connections are ever open.
	slots chan struct{}

	mu     sync.Mutex
	idle   []*remoteConn
	open   map[*remoteConn]struct{} // idle and in use, for Close
	closed bool
}

// remoteConn is one connection of the pool, owned by one exchange at a time.
type remoteConn struct {
	conn net.Conn
	rd   *bufio.Reader
	// registered holds the IDs of the programs already shipped on this
	// connection, so a program's text crosses it once however many jobs run
	// it. It is a hint, not the truth — see maxStoredPrograms.
	registered map[string]bool
	// broken is set by a wire error: the connection is closed, and the pool
	// drops it instead of taking it back.
	broken bool
	// out holds the last request frame written, its capacity reused.
	out []byte
	// text, textEpoch and textID are the last exchange text whose ID this
	// connection computed (a copy), its epoch and the ID, so a caller that
	// submits the same payload job after job hashes it once: payloadID
	// compares the bytes instead.
	text      []byte
	textEpoch int64
	textID    string
}

// NewRemoteAdapter dials the remote server, detached from any context.
func NewRemoteAdapter(addr string, opts ...RemoteOption) (*RemoteAdapter, error) {
	//lint:mqssvet disable=ctxflow convenience constructor; the Ctx variant is the context-carrying path
	return NewRemoteAdapterCtx(context.Background(), addr, opts...)
}

// NewRemoteAdapterCtx dials the remote server under ctx: cancellation or a
// ctx deadline aborts the dial. Later connections of the pool are dialled
// with the same options under the ctx of the exchange that needs one.
func NewRemoteAdapterCtx(ctx context.Context, addr string, opts ...RemoteOption) (*RemoteAdapter, error) {
	cfg := remoteConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	d := net.Dialer{Timeout: cfg.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	r := newRemoteAdapter(addr, conn)
	r.dialer = d
	return r, nil
}

// newRemoteAdapter is an adapter for addr whose pool starts with conn, an
// established connection; further connections are dialled to addr.
func newRemoteAdapter(addr string, conn net.Conn) *RemoteAdapter {
	c := newRemoteConn(conn)
	r := &RemoteAdapter{
		addr: addr, span: "remote:" + addr, slots: make(chan struct{}, maxConns),
		idle: []*remoteConn{c}, open: map[*remoteConn]struct{}{c: {}},
	}
	for range maxConns {
		r.slots <- struct{}{}
	}
	return r
}

func newRemoteConn(conn net.Conn) *remoteConn {
	return &remoteConn{conn: conn, rd: bufio.NewReaderSize(conn, 1<<20), registered: map[string]bool{}}
}

// Close closes every connection, idle or in use: an exchange in flight
// fails, and every later one fails with the closed-adapter error.
func (r *RemoteAdapter) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for c := range r.open {
		c.conn.Close()
	}
	clear(r.open)
	r.idle = nil
}

// take hands the caller a connection of its own: an idle one, or a new one
// dialled under ctx. Past maxConns it waits for put, or for ctx to end.
func (r *RemoteAdapter) take(ctx context.Context) (*remoteConn, error) {
	select {
	case <-r.slots:
	case <-ctx.Done():
		return nil, fmt.Errorf("client: remote: %w", ctx.Err())
	}
	r.mu.Lock()
	closed, n := r.closed, len(r.idle)
	var c *remoteConn
	if !closed && n > 0 {
		c, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if closed {
		r.slots <- struct{}{}
		return nil, errAdapterClosed
	}
	if c != nil {
		return c, nil
	}
	conn, err := r.dialer.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		r.slots <- struct{}{}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("client: remote: %w", cerr)
		}
		return nil, fmt.Errorf("client: remote: %w", err)
	}
	c = newRemoteConn(conn)
	r.mu.Lock()
	if closed = r.closed; !closed {
		r.open[c] = struct{}{}
	}
	r.mu.Unlock()
	if closed {
		conn.Close()
		r.slots <- struct{}{}
		return nil, errAdapterClosed
	}
	return c, nil
}

// put gives back a connection take handed out: to the idle list, unless a
// wire error broke it or the adapter has closed since.
func (r *RemoteAdapter) put(c *remoteConn) {
	r.mu.Lock()
	if c.broken || r.closed {
		delete(r.open, c)
	} else {
		r.idle = append(r.idle, c)
	}
	r.mu.Unlock()
	r.slots <- struct{}{}
}

// SubmitPayloadCtx runs precompiled exchange-format text on the server and
// waits for the result under ctx. The text is registered under a hash of
// its content and opts.CalibrationEpoch the first time the connection that
// carries the job sees it; later jobs there on the same payload send only
// the ID, which the connection keeps for the last text it hashed, so
// resubmitting one payload costs a comparison, not a hash. format is not
// sent — the server derives it from the program's profile. The remaining
// context budget ships to the server as the job
// timeout, and a cancelled ctx interrupts a blocked read within one read
// slice. That connection is then closed and dropped, as after any wire
// error (the protocol has no way to resynchronize a half-read response);
// the adapter's other connections, and the next call, are unaffected.
func (r *RemoteAdapter) SubmitPayloadCtx(ctx context.Context, device string, payload []byte, format qdmi.ProgramFormat, opts SubmitOptions) (*qpi.Result, error) {
	return r.submit(ctx, device, payload, opts)
}

// payloadID is payloadID(text, epoch), remembered for the last text and
// epoch this connection carried.
func (c *remoteConn) payloadID(text []byte, epoch int64) string {
	if c.textID == "" || c.textEpoch != epoch || !bytes.Equal(c.text, text) {
		c.text, c.textEpoch = append(c.text[:0], text...), epoch
		c.textID = payloadID(text, epoch)
	}
	return c.textID
}

// payloadID is the wire ID of exchange-format text at a calibration epoch:
// "txt-<FNV-1a 64 of the text, 16 hex digits>-<length>@<epoch>".
func payloadID(payload []byte, epoch int64) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range payload {
		h ^= uint64(c)
		h *= prime64
	}
	var buf [64]byte
	b := append(buf[:0], "txt-0000000000000000"...)
	for i := len(b) - 1; h != 0; i-- {
		b[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	b = strconv.AppendInt(append(b, '-'), int64(len(payload)), 10)
	b = strconv.AppendInt(append(b, '@'), epoch, 10)
	return string(b)
}

// submit is the one wire submission: a submit frame naming text at
// opts.CalibrationEpoch, preceded by its register frame when the connection
// it runs on has not sent it. The exchange, from the wait for a connection
// on, is recorded as a client-side dispatch span on opts.Timeline. A trace
// ID ships in the request only when the caller traces (opts.Timeline or
// opts.TraceID), and only then does the server return its spans, which are
// imported under the dispatch span — marked Remote so their durations never
// double-count into local histograms, whether the job succeeded or failed.
// A nil timeline records nothing. opts.Deadline bounds the job as the ctx
// deadline does (exchange); one already past fails before anything is
// sent.
func (r *RemoteAdapter) submit(ctx context.Context, device string, text []byte, opts SubmitOptions) (*qpi.Result, error) {
	if !opts.Deadline.IsZero() && !time.Now().Before(opts.Deadline) {
		return nil, fmt.Errorf("client: remote: %w", context.DeadlineExceeded)
	}
	req := remoteRequest{Op: "submit", Device: device, SubmitOptions: opts}
	tl := opts.Timeline
	if tl != nil {
		req.TraceID = tl.TraceID()
	}
	var (
		resp *remoteResponse
		err  error
	)
	tl.Span(telemetry.StageDispatch, r.span, 0, func(id telemetry.SpanID) {
		var c *remoteConn
		if c, err = r.take(ctx); err != nil {
			return
		}
		req.ID = c.payloadID(text, opts.CalibrationEpoch)
		resp, err = c.submitRegistered(ctx, &req, text)
		r.put(c)
		if resp != nil {
			tl.Import(resp.Spans, id)
		}
	})
	if err != nil {
		return nil, err
	}
	return resultFromWire(resp, opts)
}

// submitRegistered sends req, registering text at req.CalibrationEpoch
// under req.ID first if this connection has not. The server may not hold an
// ID the adapter remembers sending — its store is bounded, and a server
// restarted behind a relay starts empty — so an unknown_program answer is
// met by registering and submitting again, once.
func (c *remoteConn) submitRegistered(ctx context.Context, req *remoteRequest, text []byte) (*remoteResponse, error) {
	for attempt := 0; ; attempt++ {
		if !c.registered[req.ID] {
			if len(text) >= maxFrameBytes {
				// The server would stop reading mid-line; nothing is sent.
				return nil, fmt.Errorf("client: remote: %w: program text of %d bytes", ErrTooLarge, len(text))
			}
			reg := remoteRequest{Op: "register", ID: req.ID, Program: string(text), Epoch: req.CalibrationEpoch}
			if _, err := c.exchange(ctx, &reg); err != nil {
				return nil, err
			}
			if len(c.registered) >= maxStoredPrograms {
				// The server has started evicting; so does the hint.
				clear(c.registered)
			}
			c.registered[req.ID] = true
		}
		resp, err := c.exchange(ctx, req)
		if attempt > 0 || !errors.Is(err, errUnknownProgram) {
			return resp, err
		}
		delete(c.registered, req.ID)
	}
}

// Telemetry fetches the remote server's fleet metrics snapshot — every
// counter and latency histogram the server-side client accumulated.
func (r *RemoteAdapter) Telemetry(ctx context.Context) (telemetry.Snapshot, error) {
	c, err := r.take(ctx)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	req := remoteRequest{Op: "telemetry"}
	resp, err := c.exchange(ctx, &req)
	r.put(c)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Telemetry, &snap); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("client: remote telemetry frame: %w", err)
	}
	return snap, nil
}

// exchange performs one line-framed request/response round trip on the
// connection. The remaining budget of the earlier of the ctx deadline and
// the job's Deadline ships as the server-side job timeout, and any wire
// error breaks the connection (see fail). A failure the server answered
// comes with its response, whose spans the caller still imports.
func (c *remoteConn) exchange(ctx context.Context, req *remoteRequest) (*remoteResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: remote: %w", err)
	}
	dl, ok := ctx.Deadline()
	if !req.Deadline.IsZero() && (!ok || req.Deadline.Before(dl)) {
		dl, ok = req.Deadline, true
	}
	if ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return nil, fmt.Errorf("client: remote: %w", context.DeadlineExceeded)
		}
		// Round sub-millisecond budgets up to 1ms: truncating to 0 would
		// read as "no deadline" server-side and leave the job unbounded.
		req.TimeoutMs = remaining.Milliseconds()
		if req.TimeoutMs == 0 {
			req.TimeoutMs = 1
		}
		_ = c.conn.SetWriteDeadline(dl)
	}
	conn := c.conn

	frame, err := appendRequest(c.out[:0], req)
	c.out = frame
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, c.fail(ctx, err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	// Read in short deadline slices, checking ctx between them: a fired
	// ctx surfaces within one slice, and — unlike an asynchronous
	// interrupt — no callback can race a successful exchange and leave a
	// stale past deadline on a connection the pool takes back. A ctx that
	// can never fire needs no slices: the read blocks until the response,
	// or until closing the adapter closes the connection.
	poll := ctx.Done() != nil
	var line []byte
	for {
		if poll {
			_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		}
		chunk, err := c.rd.ReadSlice('\n')
		if err == nil && line == nil {
			line = chunk // the whole line in the reader's buffer: decoded in place
			break
		}
		line = append(line, chunk...)
		if len(line) > maxFrameBytes {
			return nil, c.fail(ctx, fmt.Errorf("client: remote: %w: response line over %d bytes", ErrTooLarge, maxFrameBytes))
		}
		if err == nil {
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // a line longer than the reader's buffer: keep collecting
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && ctx.Err() == nil {
			continue // still waiting; partial data accumulated above
		}
		return nil, c.fail(ctx, err)
	}
	if poll {
		_ = conn.SetReadDeadline(time.Time{})
	}
	return decodeResponse(line)
}

// decodeResponse reads one response line: a failure as its typed error
// together with the response, anything else as the response alone.
func decodeResponse(line []byte) (*remoteResponse, error) {
	var resp remoteResponse
	if err := parseResponse(line, &resp); err != nil {
		return nil, fmt.Errorf("client: remote response: %w", err)
	}
	if resp.Error != "" {
		return &resp, errorFromWire(resp.ErrorKind, resp.Error)
	}
	return &resp, nil
}

// resultFromWire is the result a response carries, once it is checked to
// hold the measurement level the job asked for: a server that ignores the
// level (an older one answers plain counts) or downgrades it (raw →
// kerneled) would leave the promised fields nil, so it fails loudly.
func resultFromWire(resp *remoteResponse, opts SubmitOptions) (*qpi.Result, error) {
	res := &resp.Result
	if opts.MeasLevel != readout.LevelDiscriminated && res.MeasLevel != opts.MeasLevel {
		return nil, fmt.Errorf("client: remote: %w: requested %s data, server returned %s",
			qdmi.ErrNotSupported, opts.MeasLevel, res.MeasLevel)
	}
	if res.Counts == nil {
		res.Counts = map[uint64]int{}
	}
	return res, nil
}

// fail maps an I/O error on the connection. The line-oriented protocol
// cannot resynchronize after a partial exchange, so any wire error breaks
// the connection: it is closed, and the pool dials a new one for the next
// exchange instead of desyncing on this one. A fired context is reported as
// the context error.
func (c *remoteConn) fail(ctx context.Context, err error) error {
	c.conn.Close()
	c.broken = true
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("client: remote: %w", cerr)
	}
	return err
}
