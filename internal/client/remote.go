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
// it has one form for every program. A program crosses the wire as its
// exchange text, once per connection: "register" ships it under an ID with
// its declared parameters and calibration epoch, and the server parses,
// verifies and keeps it. Every job afterwards is a "submit" naming that ID,
// with the job options and — for a template — one point's bindings; a
// concrete kernel is the template with no parameters and sends none.
// "telemetry" fetches the server's metrics. Deadlines cross the machine
// boundary: the adapter ships the remaining context budget as timeout_ms and
// the server bounds the job with it. ARCHITECTURE.md has the field table;
// wirecodec.go writes and reads the frames.

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

// remoteRequest is the wire form of a request.
type remoteRequest struct {
	// Op selects the request kind: "register", "submit" or "telemetry".
	Op string `json:"op"`
	// ID names a program on this connection. The adapter derives it from a
	// hash of the program's text and its calibration epoch, so a program
	// re-lowered after a recalibration is a different program on the wire.
	ID string `json:"id,omitempty"`

	// Program, Params and Epoch are the body of "register": the exchange
	// text (slots included), the declared parameter space, and the
	// calibration epoch the program was lowered at. The server checks every
	// job on the program against that epoch and rejects it with
	// stale_calibration once the target has recalibrated past it; zero
	// disables the check.
	Program string            `json:"program,omitempty"`
	Params  []ptemplate.Param `json:"params,omitempty"`
	Epoch   int64             `json:"epoch,omitempty"`

	// Bindings carries one value per declared parameter for "submit"; the
	// rest of the fields are its job options.
	Bindings map[string]float64 `json:"bindings,omitempty"`
	Device   string             `json:"device,omitempty"`
	// Pool targets a named server-side device pool instead of Device.
	Pool     string `json:"pool,omitempty"`
	Shots    int    `json:"shots,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// TimeoutMs bounds the job server-side; 0 means no client deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MeasLevel/MeasReturn select the acquisition data shape
	// ("discriminated"/"kerneled"/"raw", "single"/"avg"); empty means
	// discriminated counts.
	MeasLevel  string `json:"meas_level,omitempty"`
	MeasReturn string `json:"meas_return,omitempty"`
	// TraceID propagates the submission's telemetry trace across the wire:
	// the server records its lifecycle spans under this ID and returns them
	// in the response, so the client-side timeline covers both machines.
	// Without one the server returns no spans.
	TraceID string `json:"trace_id,omitempty"`
}

// remoteResponse is the wire form of a completed job.
type remoteResponse struct {
	Error string `json:"error,omitempty"`
	// ErrorKind carries the machine-readable class of Error across the
	// wire ("overloaded", "no_such_target"), so the adapter can rebuild
	// the typed sentinels and callers can back off with errors.Is.
	ErrorKind string `json:"error_kind,omitempty"`
	// Counts is the result's own map: its keys cross as decimal strings,
	// sorted as strings, and a key that is not a whole decimal uint64 is
	// refused when reading one back.
	Counts          map[uint64]int `json:"counts,omitempty"`
	Shots           int            `json:"shots"`
	DurationSeconds float64        `json:"duration_seconds"`
	// MeasLevel echoes the level of the returned data.
	MeasLevel string `json:"meas_level,omitempty"`
	// Bits lists the captured classical-bit positions (IQ column order).
	Bits []int `json:"bits,omitempty"`
	// IQ is [shot][capture], each point an [i, q] pair on the wire ("iq").
	// Raw is [shot][capture][sample], each sample an [i, q] pair ("raw").
	// encoding/json has no pair form for readout.IQ or complex128, so only
	// the codec (wirecodec.go) reads and writes these two.
	IQ  [][]readout.IQ   `json:"-"`
	Raw [][][]complex128 `json:"-"`
	// Spans carries the server-side lifecycle spans of the submission
	// (queue-wait, dispatch, bind, device-execute, ...) back to a client
	// that sent a trace ID, which imports them under its own dispatch span
	// so one timeline covers the whole round trip.
	Spans []telemetry.SpanWire `json:"spans,omitempty"`
	// Telemetry is the server's fleet metrics snapshot (op "telemetry").
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// ServerOption tunes a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	baseCtx     context.Context
	idleTimeout time.Duration
	maxJobTime  time.Duration
}

// WithServerBaseContext bounds every job the server runs: cancelling ctx
// cancels all in-flight remote jobs (on top of Close, which always does).
func WithServerBaseContext(ctx context.Context) ServerOption {
	return func(c *serverConfig) { c.baseCtx = ctx }
}

// WithServerIdleTimeout drops connections that send no request for d.
func WithServerIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
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
	ctx    context.Context // cancelled on Close; parent of every job ctx
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port). Options tune idle/read deadlines and job time bounds.
func NewServer(c *Client, addr string, opts ...ServerOption) (*Server, error) {
	//lint:mqssvet disable=ctxflow the default base context is overridable via WithServerBaseContext; Background is the documented fallback
	cfg := serverConfig{baseCtx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(cfg.baseCtx)
	s := &Server{client: c, ln: ln, cfg: cfg, ctx: ctx, cancel: cancel}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
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
	// Unblock reads when the server shuts down mid-connection.
	stop := context.AfterFunc(s.ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 1<<20), maxFrameBytes)
	// Registered programs are scoped to the connection: the store dies with
	// it, so a reconnecting adapter re-registers (and a restarted server can
	// never run a program it did not parse itself).
	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
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
		if s.cfg.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout))
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

// programStore is one connection's registered programs, at most
// maxStoredPrograms of them.
type programStore struct {
	byID map[string]*ptemplate.Compiled
	// order lists the IDs oldest registration first.
	order []string
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
		// Parsed, verified and checked against its declared parameters here,
		// once; every submit that names the ID runs the stored module.
		program, err := ptemplate.FromText(req.Program, req.Params, req.Epoch)
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

// handleSubmit runs one job on a registered program: the frame becomes the
// SubmitOptions a local caller passes, and the stored program and the
// point's bindings go through Client.enqueue, so the job is the request a
// local job makes. timeout_ms, capped by WithServerMaxJobTime, is the job's
// deadline.
func (s *Server) handleSubmit(req *remoteRequest, store *programStore) remoteResponse {
	program, ok := store.byID[req.ID]
	if !ok {
		return failure(fmt.Errorf("%w: %q", errUnknownProgram, req.ID))
	}
	level, err := readout.ParseMeasLevel(req.MeasLevel)
	if err != nil {
		return failure(fmt.Errorf("%w: %v", qdmi.ErrInvalidArgument, err))
	}
	ret, err := readout.ParseMeasReturn(req.MeasReturn)
	if err != nil {
		return failure(fmt.Errorf("%w: %v", qdmi.ErrInvalidArgument, err))
	}
	opts := SubmitOptions{
		Shots: req.Shots, Priority: req.Priority, Pool: req.Pool,
		MeasLevel: level, MeasReturn: ret,
	}
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if s.cfg.maxJobTime > 0 && (timeout <= 0 || s.cfg.maxJobTime < timeout) {
		timeout = s.cfg.maxJobTime
	}
	if timeout > 0 {
		opts.Deadline = time.Now().Add(timeout)
	}
	// The server-side timeline shares the caller's trace ID and feeds the
	// server's own fleet registry. Its spans ship back with the response only
	// to a caller that traces — one that sent a trace ID — so the
	// client-side timeline covers both machines.
	tl := s.client.NewTimeline(req.TraceID)
	tk, err := s.client.enqueue(s.ctx, program, req.Bindings, req.Device, opts, tl)
	var res *qdmi.Result
	if err == nil {
		if res, err = tk.Wait(s.ctx); err != nil {
			<-tk.DoneCh() // the worker writes tl until the ticket resolves
		}
	}
	var spans []telemetry.SpanWire
	if req.TraceID != "" {
		spans = telemetry.ToWire(tl.Spans())
	}
	if err != nil {
		resp := failure(err)
		resp.Spans = spans
		return resp
	}
	resp := remoteResponse{
		Counts: res.Counts, Shots: res.Shots, DurationSeconds: res.DurationSeconds,
		Spans: spans,
	}
	if res.MeasLevel != readout.LevelDiscriminated {
		resp.MeasLevel = res.MeasLevel.String()
		resp.Bits, resp.IQ = res.Bits, res.IQ
		if res.MeasLevel == readout.LevelRaw {
			resp.Raw = res.Raw
		}
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

// wireProgram is what the adapter needs of a program to put it on the wire:
// the register frame's fields. The connection that carries it derives the
// ID every submit names (remoteConn.payloadID).
type wireProgram struct {
	text   []byte
	params []ptemplate.Param
	epoch  int64
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
	return r.submit(ctx, device, wireProgram{text: payload, epoch: opts.CalibrationEpoch}, nil, opts)
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

// submit is the one wire submission: a submit frame naming p, preceded by
// p's register frame when the connection it runs on has not sent it. The
// exchange, from the wait for a connection on, is recorded as a client-side
// dispatch span on opts.Timeline. A trace ID ships in the request only when
// the caller traces (opts.Timeline or opts.TraceID), and only then does the
// server return its spans, which are imported under the dispatch span —
// marked Remote so their durations never double-count into local
// histograms. A nil timeline records nothing.
func (r *RemoteAdapter) submit(ctx context.Context, device string, p wireProgram, b ptemplate.Bindings, opts SubmitOptions) (*qpi.Result, error) {
	req := remoteRequest{
		Op: "submit", Bindings: b, Device: device, Pool: opts.Pool,
		Shots: opts.Shots, Priority: opts.Priority, TraceID: opts.TraceID,
	}
	if opts.MeasLevel != readout.LevelDiscriminated {
		req.MeasLevel = opts.MeasLevel.String()
		req.MeasReturn = opts.MeasReturn.String()
	}
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
		req.ID = c.payloadID(p.text, p.epoch)
		resp, err = c.submitRegistered(ctx, &req, p)
		r.put(c)
		if err == nil {
			tl.Import(telemetry.FromWire(resp.Spans), id)
		}
	})
	if err != nil {
		return nil, err
	}
	return resultFromWire(resp, opts)
}

// submitRegistered sends req, registering p under req.ID first if this
// connection has not. The server may not hold an ID the adapter remembers sending — its
// store is bounded, and a server restarted behind a relay starts empty — so
// an unknown_program answer is met by registering and submitting again,
// once.
func (c *remoteConn) submitRegistered(ctx context.Context, req *remoteRequest, p wireProgram) (*remoteResponse, error) {
	for attempt := 0; ; attempt++ {
		if !c.registered[req.ID] {
			if len(p.text) >= maxFrameBytes {
				// The server would stop reading mid-line; nothing is sent.
				return nil, fmt.Errorf("client: remote: %w: program text of %d bytes", ErrTooLarge, len(p.text))
			}
			reg := remoteRequest{Op: "register", ID: req.ID, Program: string(p.text), Params: p.params, Epoch: p.epoch}
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
// connection. The remaining ctx budget ships as the server-side job
// timeout, and any wire error breaks the connection (see fail).
func (c *remoteConn) exchange(ctx context.Context, req *remoteRequest) (*remoteResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: remote: %w", err)
	}
	if dl, ok := ctx.Deadline(); ok {
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

// decodeResponse reads one response line: a failure as its typed error,
// anything else as the response.
func decodeResponse(line []byte) (*remoteResponse, error) {
	var resp remoteResponse
	if err := parseResponse(line, &resp); err != nil {
		return nil, fmt.Errorf("client: remote response: %w", err)
	}
	if resp.Error != "" {
		return nil, errorFromWire(resp.ErrorKind, resp.Error)
	}
	return &resp, nil
}

// resultFromWire rebuilds a qpi.Result from a wire response, enforcing
// that the server honored the requested measurement level.
func resultFromWire(resp *remoteResponse, opts SubmitOptions) (*qpi.Result, error) {
	counts := resp.Counts
	if counts == nil {
		counts = map[uint64]int{}
	}
	out := &qpi.Result{Counts: counts, Shots: resp.Shots, DurationSeconds: resp.DurationSeconds}
	if opts.MeasLevel != readout.LevelDiscriminated && resp.MeasLevel == "" {
		// An older server ignores the meas_level request field and returns
		// plain counts; fail loudly rather than silently downgrading.
		return nil, fmt.Errorf("client: remote: %w: server returned no %s measurement data",
			qdmi.ErrNotSupported, opts.MeasLevel)
	}
	if resp.MeasLevel != "" {
		level, err := readout.ParseMeasLevel(resp.MeasLevel)
		if err != nil {
			return nil, fmt.Errorf("client: remote: %w", err)
		}
		if opts.MeasLevel != readout.LevelDiscriminated && level != opts.MeasLevel {
			// A server downgrading raw → kerneled (or similar) would leave
			// the promised fields nil; fail loudly instead.
			return nil, fmt.Errorf("client: remote: %w: requested %s data, server returned %s",
				qdmi.ErrNotSupported, opts.MeasLevel, level)
		}
		out.MeasLevel, out.Bits, out.IQ, out.Raw = level, resp.Bits, resp.IQ, resp.Raw
	}
	return out, nil
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
