package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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
// the server bounds the job with it. ARCHITECTURE.md has the field table.

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
	// ID names a program on this connection. The adapter derives it from
	// the program's fingerprint (or, for bare text, a content hash) and its
	// calibration epoch, so a program re-lowered after a recalibration is a
	// different program on the wire.
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
	Tag      string `json:"tag,omitempty"`
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
	TraceID string `json:"trace_id,omitempty"`
}

// remoteResponse is the wire form of a completed job.
type remoteResponse struct {
	Error string `json:"error,omitempty"`
	// ErrorKind carries the machine-readable class of Error across the
	// wire ("overloaded", "no_such_target"), so the adapter can rebuild
	// the typed sentinels and callers can back off with errors.Is.
	ErrorKind string `json:"error_kind,omitempty"`
	// Counts is the result's own map: encoding/json writes its keys as
	// decimal strings, sorted as strings, and refuses a key that is not a
	// whole decimal uint64 when reading one back.
	Counts          map[uint64]int    `json:"counts,omitempty"`
	Shots           int               `json:"shots"`
	DurationSeconds float64           `json:"duration_seconds"`
	DeviceInfo      map[string]string `json:"device_info,omitempty"`
	// MeasLevel echoes the level of the returned data.
	MeasLevel string `json:"meas_level,omitempty"`
	// Bits lists the captured classical-bit positions (IQ column order).
	Bits []int `json:"bits,omitempty"`
	// IQ is [shot][capture] → [i, q].
	IQ [][][2]float64 `json:"iq,omitempty"`
	// Raw is [shot][capture][sample] → [i, q].
	Raw [][][][2]float64 `json:"raw,omitempty"`
	// Spans carries the server-side lifecycle spans of the submission
	// (queue-wait, dispatch, bind, device-execute, ...) back to the client,
	// which imports them under its own dispatch span so one timeline covers
	// the whole round trip.
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
	enc := json.NewEncoder(conn)
	// Registered programs are scoped to the connection: the store dies with
	// it, so a reconnecting adapter re-registers (and a restarted server can
	// never run a program it did not parse itself).
	store := &programStore{byID: map[string]*ptemplate.Compiled{}}
	for {
		if s.cfg.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout))
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				_ = enc.Encode(failure(fmt.Errorf("%w: request line over %d bytes", ErrTooLarge, maxFrameBytes)))
			}
			return
		}
		if err := enc.Encode(s.handleLine(scanner.Bytes(), store)); err != nil {
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

// jobContext derives the context bounding one remote job from the server
// base context, the server-side cap, and the client-requested timeout.
func (s *Server) jobContext(req *remoteRequest) (context.Context, context.CancelFunc) {
	timeout := time.Duration(0)
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if s.cfg.maxJobTime > 0 && (timeout == 0 || s.cfg.maxJobTime < timeout) {
		timeout = s.cfg.maxJobTime
	}
	if timeout > 0 {
		return context.WithTimeout(s.ctx, timeout)
	}
	return context.WithCancel(s.ctx)
}

// failure is the response for a request that ended in err, typed for the
// wire where err wraps a sentinel errorKind knows.
func failure(err error) remoteResponse {
	return remoteResponse{Error: err.Error(), ErrorKind: errorKind(err)}
}

// handleLine answers one request line against the connection's store.
func (s *Server) handleLine(line []byte, store *programStore) remoteResponse {
	var req remoteRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return failure(fmt.Errorf("%w: malformed request: %v", qdmi.ErrInvalidArgument, err))
	}
	switch req.Op {
	case "register":
		if req.ID == "" {
			return failure(fmt.Errorf("%w: register without a program id", qdmi.ErrInvalidArgument))
		}
		// Parsed, verified and checked against its declared parameters here,
		// once; every submit that names the ID runs the stored module.
		program, err := ptemplate.FromText(req.ID, req.Program, req.Params, req.Epoch)
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

// handleSubmit runs one job on a registered program. This is the one place
// a wire request becomes a qrm.Request, and it is the request a local job
// makes: the stored program, the point's bindings, the program's own epoch
// for the staleness gate.
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
	device, compiledFor := req.Device, ""
	if req.Pool != "" {
		// Pool targeting wins, mirroring Client.SubmitCtx, and a pool
		// program's epoch refers to the pool's compile target. An unknown
		// pool fails the submit below.
		device = ""
		compiledFor, _ = s.client.qrm.CompileTarget("", req.Pool)
	}
	// The server-side timeline shares the caller's trace ID and feeds the
	// server's own fleet registry; its spans ship back with the response so
	// the client-side timeline covers both machines.
	tl := s.client.NewTimeline(req.TraceID)
	ctx, cancel := s.jobContext(req)
	defer cancel()
	tk, err := s.client.qrm.SubmitCtx(ctx, qrm.Request{
		Device: device, Pool: req.Pool, Template: program, Bindings: req.Bindings,
		Shots: req.Shots, Priority: req.Priority, Tag: req.Tag,
		MeasLevel: level, MeasReturn: ret,
		CalibrationEpoch: program.Epoch, CompiledFor: compiledFor, Timeline: tl,
	})
	var res *qdmi.Result
	if err == nil {
		if res, err = tk.Wait(ctx); err != nil {
			<-tk.DoneCh() // the worker writes tl until the ticket resolves
		}
	}
	if err != nil {
		if errors.Is(err, qrm.ErrCancelled) && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The scheduler reports a job its deadline ended as cancelled,
			// with the cause in prose; give the cause back its type.
			err = fmt.Errorf("%w: %v", context.DeadlineExceeded, err)
		}
		resp := failure(err)
		resp.Spans = telemetry.ToWire(tl.Spans())
		return resp
	}
	resp := remoteResponse{
		Counts: res.Counts, Shots: res.Shots, DurationSeconds: res.DurationSeconds,
		Spans: telemetry.ToWire(tl.Spans()),
	}
	if res.MeasLevel != readout.LevelDiscriminated {
		resp.MeasLevel = res.MeasLevel.String()
		resp.Bits = res.Bits
		resp.IQ = make([][][2]float64, len(res.IQ))
		for k, row := range res.IQ {
			pts := make([][2]float64, len(row))
			for i, p := range row {
				pts[i] = [2]float64{p.I, p.Q}
			}
			resp.IQ[k] = pts
		}
		if res.MeasLevel == readout.LevelRaw {
			resp.Raw = make([][][][2]float64, len(res.Raw))
			for k, shot := range res.Raw {
				traces := make([][][2]float64, len(shot))
				for i, tr := range shot {
					enc := make([][2]float64, len(tr))
					for j, v := range tr {
						enc[j] = [2]float64{real(v), imag(v)}
					}
					traces[i] = enc
				}
				resp.Raw[k] = traces
			}
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
// only where one error wraps two sentinels: a job ended by timeout_ms or the
// server's job-time cap is both deadline_exceeded and cancelled, and the
// deadline is what the caller has to hear. ARCHITECTURE.md documents the
// kinds; TestWireErrorKindRoundTrip checks every row and that every
// exported sentinel of the layers below has one.
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

// errorFromWire rebuilds a typed submission error from the wire fields; an
// unknown or empty kind keeps the message only.
func errorFromWire(kind, msg string) error {
	for _, k := range wireErrorKinds {
		if k.kind == kind {
			return fmt.Errorf("client: remote: %w: %s", k.sentinel, msg)
		}
	}
	return fmt.Errorf("client: remote: %s", msg)
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

// RemoteAdapter submits compiled payloads to a remote MQSS client over TCP.
type RemoteAdapter struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	rd   *bufio.Reader
	// registered holds the IDs of the programs already shipped on this
	// connection, so a program's text crosses the wire once however many
	// jobs run it. It is a hint, not the truth — see maxStoredPrograms.
	registered map[string]bool
}

// NewRemoteAdapter dials the remote server, detached from any context.
func NewRemoteAdapter(addr string, opts ...RemoteOption) (*RemoteAdapter, error) {
	//lint:mqssvet disable=ctxflow convenience constructor; the Ctx variant is the context-carrying path
	return NewRemoteAdapterCtx(context.Background(), addr, opts...)
}

// NewRemoteAdapterCtx dials the remote server under ctx: cancellation or a
// ctx deadline aborts the dial.
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
	return newRemoteAdapter(addr, conn), nil
}

// newRemoteAdapter wraps an established connection.
func newRemoteAdapter(addr string, conn net.Conn) *RemoteAdapter {
	return &RemoteAdapter{addr: addr, conn: conn, rd: bufio.NewReaderSize(conn, 1<<20), registered: map[string]bool{}}
}

// Close shuts the connection.
func (r *RemoteAdapter) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeLocked()
}

func (r *RemoteAdapter) closeLocked() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
		r.rd = nil
	}
}

// wireProgram is what the adapter needs of a program to put it on the wire:
// the register frame's fields under the ID every submit names.
type wireProgram struct {
	id     string
	text   []byte
	params []ptemplate.Param
	epoch  int64
}

// SubmitPayloadCtx runs precompiled exchange-format text on the server and
// waits for the result under ctx. The text is registered under a hash of
// its content and opts.CalibrationEpoch the first time this connection sees
// it; later jobs on the same payload send only the ID. format is not sent —
// the server derives it from the program's profile. The remaining context
// budget ships to the server as the job timeout, and a cancelled ctx
// interrupts a blocked read immediately (the connection is then closed: the
// protocol has no way to resynchronize a half-read response).
func (r *RemoteAdapter) SubmitPayloadCtx(ctx context.Context, device string, payload []byte, format qdmi.ProgramFormat, opts SubmitOptions) (*qpi.Result, error) {
	h := fnv.New64a()
	_, _ = h.Write(payload)
	id := fmt.Sprintf("txt-%016x-%d@%d", h.Sum64(), len(payload), opts.CalibrationEpoch)
	return r.submit(ctx, device, wireProgram{id: id, text: payload, epoch: opts.CalibrationEpoch}, nil, opts)
}

// SubmitBoundCtx submits one sweep point of a compiled program: the text
// ships once per connection and every point afterwards is a small bindings
// frame naming it by fingerprint and epoch, the epoch it was lowered at
// (opts.CalibrationEpoch is for bare text and is ignored here). Bindings are
// validated locally first, so an out-of-range or non-finite value fails
// with ptemplate.ErrBadParam before touching the wire.
func (r *RemoteAdapter) SubmitBoundCtx(ctx context.Context, device string, compiled *ptemplate.Compiled, b ptemplate.Bindings, opts SubmitOptions) (*qpi.Result, error) {
	if err := compiled.Validate(b); err != nil {
		return nil, err
	}
	id := compiled.Fingerprint + "@" + strconv.FormatInt(compiled.Epoch, 10)
	return r.submit(ctx, device, wireProgram{id: id, text: compiled.Text(), params: compiled.Params, epoch: compiled.Epoch}, b, opts)
}

// submit is the one wire submission: a submit frame naming p, preceded by
// p's register frame when this connection has not sent it. The exchange is
// recorded as a client-side dispatch span on opts.Timeline, the trace ID
// ships in the request, and the server-side spans returned in the response
// are imported under the dispatch span — marked Remote so their durations
// never double-count into local histograms. A nil timeline records nothing.
func (r *RemoteAdapter) submit(ctx context.Context, device string, p wireProgram, b ptemplate.Bindings, opts SubmitOptions) (*qpi.Result, error) {
	req := remoteRequest{
		Op: "submit", ID: p.id, Bindings: b, Device: device, Pool: opts.Pool,
		Shots: opts.Shots, Priority: opts.Priority, Tag: opts.Tag, TraceID: opts.TraceID,
	}
	if opts.MeasLevel != readout.LevelDiscriminated {
		req.MeasLevel = opts.MeasLevel.String()
		req.MeasReturn = opts.MeasReturn.String()
	}
	tl := opts.Timeline
	if tl != nil {
		req.TraceID = tl.TraceID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var (
		resp *remoteResponse
		err  error
	)
	tl.Span(telemetry.StageDispatch, "remote:"+r.addr, 0, func(id telemetry.SpanID) {
		if resp, err = r.submitRegisteredLocked(ctx, &req, p); err == nil {
			tl.Import(telemetry.FromWire(resp.Spans), id)
		}
	})
	if err != nil {
		return nil, err
	}
	return resultFromWire(resp, opts)
}

// submitRegisteredLocked sends req, registering p first if this connection
// has not (r.mu must be held). The server may not hold an ID the adapter
// remembers sending — its store is bounded, and a server restarted behind a
// relay starts empty — so an unknown_program answer is met by registering
// and submitting again, once.
func (r *RemoteAdapter) submitRegisteredLocked(ctx context.Context, req *remoteRequest, p wireProgram) (*remoteResponse, error) {
	for attempt := 0; ; attempt++ {
		if !r.registered[p.id] {
			if len(p.text) >= maxFrameBytes {
				// The server would stop reading mid-line; nothing is sent.
				return nil, fmt.Errorf("client: remote: %w: program text of %d bytes", ErrTooLarge, len(p.text))
			}
			reg := remoteRequest{Op: "register", ID: p.id, Program: string(p.text), Params: p.params, Epoch: p.epoch}
			if _, err := r.exchangeLocked(ctx, &reg); err != nil {
				return nil, err
			}
			if len(r.registered) >= maxStoredPrograms {
				// The server has started evicting; so does the hint.
				clear(r.registered)
			}
			r.registered[p.id] = true
		}
		resp, err := r.exchangeLocked(ctx, req)
		if attempt > 0 || !errors.Is(err, errUnknownProgram) {
			return resp, err
		}
		delete(r.registered, p.id)
	}
}

// Telemetry fetches the remote server's fleet metrics snapshot — every
// counter and latency histogram the server-side client accumulated.
func (r *RemoteAdapter) Telemetry(ctx context.Context) (telemetry.Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	req := remoteRequest{Op: "telemetry"}
	resp, err := r.exchangeLocked(ctx, &req)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Telemetry, &snap); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("client: remote telemetry frame: %w", err)
	}
	return snap, nil
}

// exchangeLocked performs one line-framed request/response round trip on
// the shared connection; r.mu must be held. The remaining ctx budget ships
// as the server-side job timeout, and any wire error poisons the
// connection (see wireError).
func (r *RemoteAdapter) exchangeLocked(ctx context.Context, req *remoteRequest) (*remoteResponse, error) {
	if r.conn == nil {
		return nil, fmt.Errorf("client: remote adapter closed")
	}
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
		_ = r.conn.SetWriteDeadline(dl)
	}
	conn := r.conn

	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(append(data, '\n')); err != nil {
		return nil, r.wireError(ctx, err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	// Read in short deadline slices, checking ctx between them: a fired
	// ctx surfaces within one slice, and — unlike an asynchronous
	// interrupt — no callback can race a successful exchange and leave a
	// stale past deadline on the shared connection.
	var line []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		chunk, err := r.rd.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxFrameBytes {
			return nil, r.wireError(ctx, fmt.Errorf("client: remote: %w: response line over %d bytes", ErrTooLarge, maxFrameBytes))
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
		return nil, r.wireError(ctx, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return decodeResponse(line)
}

// decodeResponse reads one response line: a failure as its typed error,
// anything else as the response.
func decodeResponse(line []byte) (*remoteResponse, error) {
	var resp remoteResponse
	if err := json.Unmarshal(line, &resp); err != nil {
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
		out.MeasLevel = level
		out.Bits = resp.Bits
		out.IQ = make([][]readout.IQ, len(resp.IQ))
		for k, row := range resp.IQ {
			pts := make([]readout.IQ, len(row))
			for i, p := range row {
				pts[i] = readout.IQ{I: p[0], Q: p[1]}
			}
			out.IQ[k] = pts
		}
		if len(resp.Raw) > 0 {
			out.Raw = make([][][]complex128, len(resp.Raw))
			for k, shot := range resp.Raw {
				traces := make([][]complex128, len(shot))
				for i, tr := range shot {
					dec := make([]complex128, len(tr))
					for j, v := range tr {
						dec[j] = complex(v[0], v[1])
					}
					traces[i] = dec
				}
				out.Raw[k] = traces
			}
		}
	}
	return out, nil
}

// wireError maps an I/O error on the shared connection. The line-oriented
// protocol cannot resynchronize after a partial exchange, so any wire
// error poisons the connection: close it so later submissions fail fast
// instead of desyncing. A fired context is reported as the context error.
func (r *RemoteAdapter) wireError(ctx context.Context, err error) error {
	r.closeLocked()
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("client: remote: %w", cerr)
	}
	return err
}
