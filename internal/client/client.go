// Package client implements the MQSS Client of Fig. 2: the orchestration
// layer MQSS Adapters submit jobs through. It routes kernels to the JIT
// compiler and the QRM scheduler for local devices, and over a REST-like
// TCP protocol for remote submission. Three adapters are provided: the
// native compiled QPI adapter (the paper's low-latency C API analogue), an
// interpreted adapter that parses a textual program per call (the
// scripting-runtime stand-in for the Section 5.1 overhead comparison), and
// the remote adapter.
//
// The execution surface is context-aware and asynchronous: SubmitCtx
// returns a scheduler ticket bound to the caller's context, RunCtx waits
// under it, and RunBatch compiles many kernels concurrently and pipelines
// them through the scheduler. Submissions target a single device or — via
// SubmitOptions.Pool — a QRM device pool, in which case the kernel compiles
// against a deterministic representative member and the fleet scheduler
// places the job on the least-loaded one; admission-control rejections
// surface as qrm.ErrOverloaded (also across the remote wire protocol) so
// callers can back off. The pre-context entry points (Submit, Run) remain
// as deprecated shims.
package client

import (
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// DefaultCacheEntries is the lowering-cache entry bound used until
// SetCacheLimit overrides it. The cache is LRU: under churn past the bound
// the least-recently-compiled kernels fall out first.
const DefaultCacheEntries = 4096

// Client routes finished kernels through compile → schedule → execute.
type Client struct {
	session *qdmi.Session
	qrm     *qrm.Scheduler
	// telem is the client's fleet metrics registry: per-stage latency
	// histograms fed by every traced job's timeline, plus the scheduler's
	// queue-wait histograms and counters (the same registry is installed
	// into the QRM at construction).
	telem *telemetry.Registry

	mu sync.Mutex //mqss:lockrank 10
	// loweringCache memoizes compiled payloads keyed by (device, kernel
	// fingerprint); ablation benchmarks toggle it. It is a bounded LRU
	// (cacheLimit entries; lruList front = most recently used), and every
	// entry records the calibration epoch of the device it was compiled
	// against: a lookup whose target has recalibrated since invalidates
	// the entry instead of serving a stale payload.
	loweringCache map[string]*list.Element
	lruList       *list.List
	cacheLimit    int
	CacheEnabled  bool
	cacheStats    CacheStats
	// templateEntries tracks how many cache entries hold compiled parametric
	// templates (kept incrementally; removeLocked maintains it).
	templateEntries int
}

// cacheEntry stores the compiled payload together with its exchange
// format (so cache hits never re-derive the format from payload bytes)
// and the compile-time calibration epoch of the target device. Template
// entries carry the compiled parametric artifact instead of payload bytes:
// one entry serves every sweep point, so a lookup hit is a bind, not a
// payload reuse.
type cacheEntry struct {
	key     string
	payload []byte
	format  qdmi.ProgramFormat
	epoch   int64
	tpl     *ptemplate.Compiled
}

// CacheStats is a point-in-time snapshot of the lowering-cache counters.
type CacheStats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that fell through to the JIT compiler.
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Invalidations counts entries dropped because the target device's
	// calibration epoch moved past the entry's compile-time epoch.
	Invalidations int64
	// Binds counts template lookups served from a cached compiled template:
	// sweep points that paid a parameter bind instead of a compilation. A
	// healthy N-point sweep shows 1 miss and N−1 binds.
	Binds int64
	// Entries is the current entry count; Limit is the configured bound.
	Entries int
	// Limit is the configured maximum entry count.
	Limit int
	// TemplateEntries is how many current entries are compiled parametric
	// templates (included in Entries).
	TemplateEntries int
}

// New builds a client over a QDMI session with its own QRM scheduler.
func New(session *qdmi.Session) *Client {
	c := &Client{
		session:       session,
		qrm:           qrm.New(session),
		telem:         telemetry.NewRegistry(),
		loweringCache: map[string]*list.Element{},
		lruList:       list.New(),
		cacheLimit:    DefaultCacheEntries,
		CacheEnabled:  true,
	}
	// One registry spans the stack: client compile/bind stages, scheduler
	// queue-wait and dispatch counters, and device execution stages all
	// land in the same snapshot.
	c.qrm.SetTelemetry(c.telem)
	return c
}

// QRM exposes the scheduler (for maintenance-hook installation).
func (c *Client) QRM() *qrm.Scheduler { return c.qrm }

// TelemetryRegistry exposes the client's fleet metrics registry — the
// sink every traced job's stage durations and the scheduler's queue-wait
// histograms accumulate into.
func (c *Client) TelemetryRegistry() *telemetry.Registry { return c.telem }

// Telemetry snapshots the fleet metrics: every counter and latency
// histogram (with p50/p95/p99) accumulated since the client was built.
func (c *Client) Telemetry() telemetry.Snapshot { return c.telem.Snapshot() }

// NewTimeline creates a job timeline attached to the client's metrics
// registry. Callers that compile and submit in separate steps (the remote
// adapter, sweep drivers) create the timeline first so every stage lands
// on one trace; pass it through SubmitOptions.Timeline.
func (c *Client) NewTimeline(traceID string) *telemetry.Timeline {
	return telemetry.NewTimeline(traceID, c.telem)
}

// Devices lists the reachable device names.
func (c *Client) Devices() ([]string, error) { return c.session.Devices() }

// Device resolves a device for direct QDMI queries.
func (c *Client) Device(name string) (qdmi.Device, error) { return c.session.Device(name) }

// CacheHits reports lowering-cache hits (ablation metric).
func (c *Client) CacheHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheStats.Hits
}

// CacheStats snapshots the lowering-cache counters.
func (c *Client) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.cacheStats
	st.Entries = c.lruList.Len()
	st.Limit = c.cacheLimit
	st.TemplateEntries = c.templateEntries
	return st
}

// SetCacheLimit bounds the lowering cache to n entries (values below 1 are
// clamped to 1), evicting least-recently-used entries immediately if the
// cache is already past the new bound.
func (c *Client) SetCacheLimit(n int) {
	if n < 1 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheLimit = n
	c.evictLocked()
}

// evictLocked drops LRU tail entries until the cache fits its bound.
func (c *Client) evictLocked() {
	for c.lruList.Len() > c.cacheLimit {
		el := c.lruList.Back()
		c.removeLocked(el)
		c.cacheStats.Evictions++
	}
}

// removeLocked unlinks one cache entry from both index and LRU list.
func (c *Client) removeLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	if entry.tpl != nil {
		c.templateEntries--
	}
	delete(c.loweringCache, entry.key)
	c.lruList.Remove(el)
}

// Close shuts down the scheduler.
func (c *Client) Close() { c.qrm.Close() }

// fingerprint builds a cache key from the kernel structure in one linear
// pass over the ops (a strings.Builder, not repeated concatenation).
// Waveform sample data participates through a digest: two kernels that
// define different samples under the same waveform name must not collide.
func fingerprint(k *qpi.Circuit, device string) string {
	var b strings.Builder
	b.Grow(64 + 48*len(k.Ops))
	fmt.Fprintf(&b, "%s/%s/%d/%d/%d", device, k.Name, k.Qubits, k.Classical, len(k.Ops))
	for _, op := range k.Ops {
		fmt.Fprintf(&b, "|%d:%s:%v:%v:%s:%s:%g:%g:%d:%d:%d",
			op.Kind, op.Gate, op.Qubits, op.Params, op.WaveformName, op.Port,
			op.FrequencyHz, op.PhaseRad, op.DelaySamples, op.Qubit, op.Cbit)
	}
	if len(k.Waveforms) > 0 {
		fmt.Fprintf(&b, "|wf:%016x", waveformDigest(k))
	}
	return b.String()
}

// waveformDigest hashes every waveform's sample data in name order.
func waveformDigest(k *qpi.Circuit) uint64 {
	names := make([]string, 0, len(k.Waveforms))
	for name := range k.Waveforms {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [16]byte
	for _, name := range names {
		_, _ = io.WriteString(h, name)
		_, _ = h.Write([]byte{0})
		for _, s := range k.Waveforms[name].Samples {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(s)))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(s)))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Compile lowers a kernel for a device, using the lowering cache when
// enabled.
func (c *Client) Compile(k *qpi.Circuit, device string) ([]byte, qdmi.ProgramFormat, error) {
	payload, format, _, _, err := c.compile(k, device, false)
	return payload, format, err
}

// CompileTraced is Compile with telemetry: the compile span — and a
// cache-hit or cache-miss child — lands on tl, and the returned epoch is
// the calibration epoch the payload was compiled against. It is the
// compile half of the split compile/submit path the remote adapter uses.
func (c *Client) CompileTraced(k *qpi.Circuit, device string, tl *telemetry.Timeline) ([]byte, qdmi.ProgramFormat, int64, error) {
	payload, format, epoch, _, err := c.compileTraced(k, device, false, tl)
	return payload, format, epoch, err
}

// compileTraced wraps compile in a StageCompile span with a cache-hit or
// cache-miss child on tl (nil tl records nothing).
func (c *Client) compileTraced(k *qpi.Circuit, device string, bypassCache bool, tl *telemetry.Timeline) ([]byte, qdmi.ProgramFormat, int64, bool, error) {
	start := time.Now()
	payload, format, epoch, hit, err := c.compile(k, device, bypassCache)
	if err != nil {
		return nil, "", 0, false, err
	}
	d := time.Since(start)
	span := tl.Record(telemetry.StageCompile, device, start, d, 0)
	cacheStage := telemetry.StageCacheMiss
	if hit {
		cacheStage = telemetry.StageCacheHit
	}
	tl.Record(cacheStage, device, start, d, span)
	return payload, format, epoch, hit, nil
}

// deviceEpoch reads a device's calibration epoch. Epoch-unaware devices
// (ErrNotSupported) report zero, which disables downstream staleness
// checks; any other failure — a device advertising the property but
// answering it with the wrong type — propagates, because treating it as
// epoch-unaware would silently drop every staleness protection.
func deviceEpoch(dev qdmi.Device) (int64, error) {
	epoch, err := qdmi.QueryCalibrationEpoch(dev)
	if err != nil {
		if errors.Is(err, qdmi.ErrNotSupported) {
			return 0, nil
		}
		return 0, err
	}
	return epoch, nil
}

// compile lowers a kernel and returns the payload, its exchange format,
// the calibration epoch it was compiled against, and whether the payload
// was served from the lowering cache.
func (c *Client) compile(k *qpi.Circuit, device string, bypassCache bool) ([]byte, qdmi.ProgramFormat, int64, bool, error) {
	if k.IsParametric() {
		return nil, "", 0, false, fmt.Errorf(
			"client: kernel %q carries unbound parameters %v; wrap it in a ptemplate.Template and use SubmitSweepCtx/RunSweep",
			k.Name, k.ParamNames())
	}
	dev, err := c.session.Device(device)
	if err != nil {
		return nil, "", 0, false, err
	}
	// The epoch is read before any lowering query: if a recalibration
	// lands mid-compile the recorded epoch is already superseded, so the
	// dispatch-time check (or the next cache lookup) forces a recompile —
	// the race can only err toward recompiling, never toward staleness.
	epoch, err := deviceEpoch(dev)
	if err != nil {
		return nil, "", 0, false, err
	}
	useCache := c.CacheEnabled && !bypassCache
	key := ""
	if useCache {
		key = fingerprint(k, device)
		c.mu.Lock()
		if el, ok := c.loweringCache[key]; ok {
			entry := el.Value.(*cacheEntry)
			if entry.epoch == epoch {
				c.cacheStats.Hits++
				c.lruList.MoveToFront(el)
				c.mu.Unlock()
				c.telem.Add("client/cache_hits", 1)
				return entry.payload, entry.format, entry.epoch, true, nil
			}
			// Compiled against a calibration the device has left.
			c.removeLocked(el)
			c.cacheStats.Invalidations++
		}
		c.cacheStats.Misses++
		c.mu.Unlock()
		c.telem.Add("client/cache_misses", 1)
	}
	res, err := compiler.Compile(k, dev)
	if err != nil {
		return nil, "", 0, false, err
	}
	format := compiler.FormatFor(res.QIR)
	if useCache {
		c.mu.Lock()
		if el, ok := c.loweringCache[key]; ok {
			// A concurrent compile of the same kernel won the race; keep
			// its entry and just refresh recency.
			c.lruList.MoveToFront(el)
		} else {
			entry := &cacheEntry{key: key, payload: res.Payload, format: format, epoch: epoch}
			c.loweringCache[key] = c.lruList.PushFront(entry)
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	return res.Payload, format, epoch, false, nil
}

// containsPulse reports whether a QIR payload carries the pulse profile
// attribute (format sniffing for raw payloads).
func containsPulse(payload []byte) bool {
	return bytes.Contains(payload, []byte(`"qir_profiles"="pulse"`))
}

// SubmitOptions tunes a submission.
type SubmitOptions struct {
	// Shots is the number of measurement samples (qpi.DefaultShots when
	// zero).
	Shots int
	// ShotWorkers, when positive, spreads the job's independent shots
	// across that many device-side workers (zero keeps the device's
	// configured default). Shot outcomes never depend on worker
	// scheduling or completion order.
	ShotWorkers int
	// Priority orders scheduler dispatch: higher runs first.
	Priority int
	// Tag labels the ticket for tracing and per-tenant accounting.
	Tag string
	// Pool, when non-empty, targets a named QRM device pool instead of the
	// device argument (which is then ignored): the kernel compiles against
	// a deterministic representative member and the scheduler places the
	// job on the least-loaded one.
	Pool string
	// BypassCache skips the lowering cache for this submission.
	BypassCache bool
	// CalibrationEpoch declares the calibration epoch a precompiled
	// payload was built against; it is only consulted by the raw-payload
	// remote path (RemoteAdapter.SubmitPayloadCtx), where the caller did
	// the compiling. Kernel submissions through the client derive the
	// epoch from their own compile step and ignore this field. Zero skips
	// the server's dispatch-time staleness check.
	CalibrationEpoch int64
	// MeasLevel selects the measurement level (discriminated counts by
	// default; kerneled/raw return IQ acquisition records).
	MeasLevel readout.MeasLevel
	// MeasReturn selects per-shot or shot-averaged acquisition records.
	MeasReturn readout.MeasReturn
	// TraceID is the telemetry trace identifier for this submission; empty
	// mints one. Ignored when Timeline is set (the timeline carries its own).
	TraceID string
	// Timeline, when non-nil, is the trace the submission's lifecycle spans
	// are recorded onto — used by callers that already recorded spans (a
	// separate compile step) before submitting. Nil creates a fresh
	// timeline per submission.
	Timeline *telemetry.Timeline
}

// resultFromQDMI converts a device-layer result into the QPI form,
// carrying the acquisition records through unchanged.
func resultFromQDMI(res *qdmi.Result) *qpi.Result {
	return &qpi.Result{
		Counts: res.Counts, Shots: res.Shots, DurationSeconds: res.DurationSeconds,
		MeasLevel: res.MeasLevel, Bits: res.Bits, IQ: res.IQ, Raw: res.Raw,
	}
}

// compileTarget resolves the device a submission compiles against: the
// named device, or — for pool submissions — the pool's first member in
// sorted order. The representative is deterministic so pool submissions
// share lowering-cache entries; RegisterPool's compatibility check is what
// makes the payload runnable on every member.
func (c *Client) compileTarget(device string, opts SubmitOptions) (string, error) {
	if opts.Pool == "" {
		return device, nil
	}
	members, err := c.qrm.PoolMembers(opts.Pool)
	if err != nil {
		return "", err
	}
	return members[0], nil
}

// SubmitCtx compiles and enqueues a kernel under ctx, returning the QRM
// ticket. Cancelling ctx cancels the job wherever it is: a queued ticket
// never reaches the device; a running one is aborted where the device
// supports it. When opts.Pool is set the device argument is ignored and
// the job is placed on the pool's least-loaded member; overload
// rejections surface as qrm.ErrOverloaded.
func (c *Client) SubmitCtx(ctx context.Context, k *qpi.Circuit, device string, opts SubmitOptions) (*qrm.Ticket, error) {
	if err := k.Err(); err != nil {
		return nil, err
	}
	if !k.Finished() {
		return nil, fmt.Errorf("client: kernel %q not finished", k.Name)
	}
	if opts.Shots <= 0 {
		opts.Shots = qpi.DefaultShots
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: submit: %w", err)
	}
	target, err := c.compileTarget(device, opts)
	if err != nil {
		return nil, err
	}
	tl := opts.Timeline
	if tl == nil {
		tl = telemetry.NewTimeline(opts.TraceID, c.telem)
	} else {
		tl.AttachRegistry(c.telem)
	}
	payload, format, epoch, _, err := c.compileTraced(k, target, opts.BypassCache, tl)
	if err != nil {
		return nil, err
	}
	req := qrm.Request{
		Device: device, Payload: payload, Format: format,
		Shots: opts.Shots, Priority: opts.Priority, Tag: opts.Tag,
		MeasLevel: opts.MeasLevel, MeasReturn: opts.MeasReturn,
		CalibrationEpoch: epoch, CompiledFor: target,
		Timeline: tl, ShotWorkers: opts.ShotWorkers,
	}
	if opts.Pool != "" {
		req.Device, req.Pool = "", opts.Pool
	}
	return c.qrm.SubmitCtx(ctx, req)
}

// RunCtx is the synchronous context-aware path: compile, schedule, and
// wait, all bounded by one ctx.
func (c *Client) RunCtx(ctx context.Context, k *qpi.Circuit, device string, opts SubmitOptions) (*qpi.Result, error) {
	tk, err := c.SubmitCtx(ctx, k, device, opts)
	if err != nil {
		return nil, err
	}
	res, err := tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return resultFromQDMI(res), nil
}

// BatchResult pairs one batch entry's outcome with its error; exactly one
// of the fields is set.
type BatchResult struct {
	Result *qpi.Result
	Err    error
}

// batchCompileWorkers bounds concurrent JIT compilations in a batch.
func batchCompileWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// SubmitBatch compiles the kernels concurrently (bounded by the CPU count)
// and enqueues one ticket each under ctx. The returned slices are parallel
// to kernels: entries that failed to compile or enqueue have a nil ticket
// and a non-nil error. Successfully submitted entries proceed even if
// siblings failed — batch failure is per-item, not all-or-nothing.
func (c *Client) SubmitBatch(ctx context.Context, kernels []*qpi.Circuit, device string, opts SubmitOptions) ([]*qrm.Ticket, []error) {
	tickets := make([]*qrm.Ticket, len(kernels))
	errs := make([]error, len(kernels))
	sem := make(chan struct{}, batchCompileWorkers())
	var wg sync.WaitGroup
	for i, k := range kernels {
		wg.Add(1)
		go func(i int, k *qpi.Circuit) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = fmt.Errorf("client: batch: %w", ctx.Err())
				return
			}
			defer func() { <-sem }()
			tickets[i], errs[i] = c.SubmitCtx(ctx, k, device, opts)
		}(i, k)
	}
	// Every worker exits on ctx.Done before acquiring the semaphore, and
	// SubmitCtx is itself ctx-bounded, so this Wait is bounded by
	// cancellation and cannot be selected on.
	wg.Wait() //lint:mqssvet disable=ctxcancel workers exit on ctx.Done, so the Wait is ctx-bounded
	return tickets, errs
}

// RunBatch submits N kernels as a batch and waits for all of them. The
// result slice is parallel to kernels; sibling failures and cancellations
// surface per item. Compared with N sequential RunCtx calls, compilation
// overlaps across kernels and the device queue never drains between jobs.
func (c *Client) RunBatch(ctx context.Context, kernels []*qpi.Circuit, device string, opts SubmitOptions) ([]BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: batch: %w", err)
	}
	tickets, errs := c.SubmitBatch(ctx, kernels, device, opts)
	out := make([]BatchResult, len(kernels))
	for i, tk := range tickets {
		if tk == nil {
			out[i].Err = errs[i]
			continue
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result = resultFromQDMI(res)
	}
	return out, nil
}

// NativeAdapter is the MQSS QPI Adapter: a compiled, in-process qpi.Backend
// bound to one device through the client — the paper's low-overhead path.
type NativeAdapter struct {
	Client *Client
	Target string
}

// Name implements qpi.Backend.
func (a *NativeAdapter) Name() string { return "qpi-native/" + a.Target }

// Submit implements qpi.Backend: it threads the execution config into the
// client and wraps the scheduler ticket as a qpi.Handle. A config deadline
// derives a deadline context whose expiry cancels the job itself.
func (a *NativeAdapter) Submit(ctx context.Context, k *qpi.Circuit, cfg qpi.ExecConfig) (qpi.Handle, error) {
	opts := SubmitOptions{
		Shots:       cfg.Shots,
		ShotWorkers: cfg.ShotWorkers,
		Priority:    cfg.Priority,
		Tag:         cfg.Tag,
		Pool:        cfg.Pool,
		BypassCache: cfg.BypassCache,
		MeasLevel:   cfg.MeasLevel,
		MeasReturn:  cfg.MeasReturn,
		TraceID:     cfg.TraceID,
	}
	var cancel context.CancelFunc
	if !cfg.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, cfg.Deadline)
	}
	tk, err := a.Client.SubmitCtx(ctx, k, a.Target, opts)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	if cancel != nil {
		// Release the deadline timer once the ticket resolves.
		go func() {
			<-tk.DoneCh()
			cancel()
		}()
	}
	return &ticketHandle{tk: tk}, nil
}

// ticketHandle adapts a QRM ticket to the qpi.Handle future interface.
type ticketHandle struct {
	tk *qrm.Ticket
}

// ID implements qpi.Handle.
func (h *ticketHandle) ID() string { return fmt.Sprintf("qrm-%d", h.tk.ID()) }

// Status implements qpi.Handle.
func (h *ticketHandle) Status() qpi.ExecStatus {
	switch h.tk.Status() {
	case qdmi.JobQueued:
		return qpi.ExecQueued
	case qdmi.JobRunning:
		return qpi.ExecRunning
	case qdmi.JobDone:
		return qpi.ExecDone
	case qdmi.JobCancelled:
		return qpi.ExecCancelled
	default:
		return qpi.ExecFailed
	}
}

// Cancel implements qpi.Handle.
func (h *ticketHandle) Cancel() { h.tk.Cancel() }

// Timeline implements qpi.Handle: the job's trace as recorded through the
// client, scheduler, and device.
func (h *ticketHandle) Timeline() *telemetry.Timeline { return h.tk.Timeline() }

// Wait implements qpi.Handle.
func (h *ticketHandle) Wait(ctx context.Context) (*qpi.Result, error) {
	res, err := h.tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return resultFromQDMI(res), nil
}
