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
// callers can back off.
//
// Every program — a concrete kernel or a parametric template, which differ
// only in whether they declare parameters — takes one path: lower looks it
// up in the lowering cache (or compiles it) as a ptemplate.Compiled, submit
// hands that to the scheduler, and the scheduler gives the device the
// cached in-memory module. QIR text is the wire format only: lowering does
// not produce it, and it is emitted (once per program) and read where text
// is the interface — Compile/CompileTraced callers and the remote wire —
// never parsed back in-process.
//
// The remote path is the same path with a wire in it. A program — template
// or not, its slots are part of the text — is registered once per
// connection and parsed once by the server, which keeps it as the same
// ptemplate.Compiled the lowering cache holds; each remote job then names
// it by ID and becomes the qrm.Request a local job makes (remote.go has the
// protocol, ARCHITECTURE.md its field table).
package client

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
)

// DefaultCacheEntries bounds the lowering cache. The cache is LRU: under
// churn past the bound the least-recently-compiled kernels fall out first.
const DefaultCacheEntries = 4096

// Client routes finished kernels through compile → schedule → execute.
type Client struct {
	session *qdmi.Session
	qrm     *qrm.Scheduler
	// telem is the client's fleet metrics registry: per-stage latency
	// histograms fed by every traced job's timeline, plus the scheduler's
	// queue-wait histograms and counters (the same registry is installed
	// into the QRM at construction).
	telem                  *telemetry.Registry
	cacheHits, cacheMisses *telemetry.Counter // telem's "client/cache_*"

	mu sync.Mutex
	// loweringCache memoizes compiled programs by cacheKey. It is a bounded
	// LRU (cacheLimit entries; lruList front = most recently used), and
	// every program records the calibration epoch of the device it was
	// lowered against: a lookup whose target has recalibrated since
	// invalidates the entry instead of serving a stale program.
	loweringCache map[cacheKey]*list.Element
	lruList       *list.List
	cacheLimit    int
	cacheStats    CacheStats
	// templateEntries tracks how many cached programs have parameters (kept
	// incrementally; removeLocked maintains it).
	templateEntries int
}

// cacheKey is a lowering-cache key: the device a program compiles against
// and the program's key, rendered once — by qpi.Circuit.End for a kernel,
// by ptemplate.New for a template — so a lookup renders nothing.
type cacheKey struct{ target, program string }

// cacheEntry is one cached program under its key. A template's entry serves
// every sweep point, so a hit on it is a bind, not a payload reuse.
type cacheEntry struct {
	key     cacheKey
	program *ptemplate.Compiled
}

// CacheStats is a point-in-time snapshot of the lowering-cache counters.
type CacheStats struct {
	// Hits counts concrete-kernel lookups served from the cache.
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
		loweringCache: map[cacheKey]*list.Element{},
		lruList:       list.New(),
		cacheLimit:    DefaultCacheEntries,
	}
	c.cacheHits = c.telem.Counter("client/cache_hits")
	c.cacheMisses = c.telem.Counter("client/cache_misses")
	// One registry spans the stack: client compile/bind stages, scheduler
	// queue-wait and dispatch counters, and device execution stages all
	// land in the same snapshot.
	c.qrm.SetTelemetry(c.telem)
	return c
}

// QRM exposes the scheduler: fleet configuration, stats, and the submit path
// for callers that hold exchange text instead of a kernel.
func (c *Client) QRM() *qrm.Scheduler { return c.qrm }

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
	if len(entry.program.Params) > 0 {
		c.templateEntries--
	}
	delete(c.loweringCache, entry.key)
	c.lruList.Remove(el)
}

// Close shuts down the scheduler.
func (c *Client) Close() { c.qrm.Close() }

// Compile lowers a kernel for a device, using the lowering cache when
// enabled, and returns its exchange-format text.
func (c *Client) Compile(k *qpi.Circuit, device string) ([]byte, qdmi.ProgramFormat, error) {
	payload, format, _, err := c.CompileTraced(k, device, nil)
	return payload, format, err
}

// CompileTraced is Compile with telemetry: the compile span — and a
// cache-hit or cache-miss child — lands on tl, and the returned epoch is
// the calibration epoch the payload was compiled against. It is the
// compile half of the split compile/submit path the remote adapter uses.
func (c *Client) CompileTraced(k *qpi.Circuit, device string, tl *telemetry.Timeline) ([]byte, qdmi.ProgramFormat, int64, error) {
	start := time.Now()
	program, hit, err := c.lower(cacheKey{device, k.Key()}, k, nil)
	if err != nil {
		return nil, "", 0, err
	}
	// Emitted by the first caller to ask, inside that caller's compile span.
	text := program.Text()
	recordCompile(tl, device, start, hit)
	return text, program.Format, program.Epoch, nil
}

// CompileTemplate lowers a parametric template against a device exactly
// once per (template, device, calibration epoch) and serves every
// subsequent lookup from the lowering cache. Bound parameter values never
// enter the cache key, so an N-point sweep costs one compilation: the
// first lookup records a miss, the remaining N−1 record binds (see
// CacheStats.Binds), and a calibration-epoch bump invalidates the entry
// exactly like a concrete kernel's.
func (c *Client) CompileTemplate(t *ptemplate.Template, device string) (*ptemplate.Compiled, error) {
	program, _, err := c.lower(cacheKey{device, t.Key()}, t.Circuit(), t.Params())
	return program, err
}

// lowerTraced is lower under ctx, with its time recorded on tl.
func (c *Client) lowerTraced(ctx context.Context, key cacheKey, k *qpi.Circuit, params []ptemplate.Param,
	tl *telemetry.Timeline) (*ptemplate.Compiled, error) {

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: submit: %w", err)
	}
	start := time.Now()
	program, hit, err := c.lower(key, k, params)
	if err != nil {
		return nil, err
	}
	recordCompile(tl, key.target, start, hit)
	return program, nil
}

// recordCompile puts the time since start on tl as a StageCompile span with
// a cache-hit or cache-miss child (nil tl records nothing).
func recordCompile(tl *telemetry.Timeline, device string, start time.Time, hit bool) {
	d := time.Since(start)
	span := tl.Record(telemetry.StageCompile, device, start, d, 0)
	cacheStage := telemetry.StageCacheMiss
	if hit {
		cacheStage = telemetry.StageCacheHit
	}
	tl.Record(cacheStage, device, start, d, span)
}

// lower is the one path through the lowering cache: it returns the program
// k lowers to under key — its slots, if any, declared by params — and
// whether the cache served it.
func (c *Client) lower(key cacheKey, k *qpi.Circuit, params []ptemplate.Param) (*ptemplate.Compiled, bool, error) {
	dev, err := c.session.Device(key.target)
	if err != nil {
		return nil, false, err
	}
	// The epoch is read before the probe: a recalibration landing mid-lookup
	// can only make the entry look stale, and one landing mid-compile is
	// caught by the dispatch-time check or the next lookup — the race can
	// only err toward recompiling, never toward staleness.
	epoch, err := qdmi.DeviceEpoch(dev)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if el, ok := c.loweringCache[key]; ok {
		entry := el.Value.(*cacheEntry)
		if entry.program.Epoch == epoch {
			if len(params) == 0 {
				c.cacheStats.Hits++
			} else {
				// A cache-hot template: this sweep point pays a bind, not a
				// compile — the distinction CacheStats.Binds exists to show.
				c.cacheStats.Binds++
			}
			c.lruList.MoveToFront(el)
			c.mu.Unlock()
			c.cacheHits.Add(1)
			return entry.program, true, nil
		}
		// Compiled against a calibration the device has left.
		c.removeLocked(el)
		c.cacheStats.Invalidations++
	}
	c.cacheStats.Misses++
	c.mu.Unlock()
	c.cacheMisses.Add(1)
	program, err := ptemplate.LowerCircuit(k, params, dev)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.loweringCache[key]; ok {
		if won := el.Value.(*cacheEntry).program; won.Epoch == program.Epoch {
			// A concurrent lowering against the same calibration won the
			// race; keep its entry and just refresh recency.
			c.lruList.MoveToFront(el)
			return won, false, nil
		}
		// One against another calibration: this program replaces it, so a
		// job never leaves with a program older than the one it compiled.
		c.removeLocked(el)
		c.cacheStats.Invalidations++
	}
	c.loweringCache[key] = c.lruList.PushFront(&cacheEntry{key: key, program: program})
	if len(params) > 0 {
		c.templateEntries++
	}
	c.evictLocked()
	return program, false, nil
}

// SubmitOptions tunes a submission: the QPI's execution config, carried
// as is rather than re-declared.
type SubmitOptions = qpi.ExecConfig

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
		return nil, fmt.Errorf("client: kernel %q not finished", k.Name())
	}
	target, err := c.qrm.CompileTarget(device, opts.Pool)
	if err != nil {
		return nil, err
	}
	tl := opts.Timeline
	if tl == nil {
		tl = telemetry.NewTimeline(opts.TraceID, c.telem)
	} else {
		tl.AttachRegistry(c.telem)
	}
	program, err := c.lowerTraced(ctx, cacheKey{target, k.Key()}, k, nil, tl)
	if err != nil {
		return nil, err
	}
	return c.enqueue(ctx, program, nil, device, opts, tl)
}

// enqueue is the one place a job becomes a qrm.Request, local or off the
// wire. The staleness gate checks the program's epoch against the device
// the request names, or the pool's representative (CompileTarget), on
// whichever member runs it; b is bound at dispatch; opts.Deadline is the
// ticket's, and its expiry cancels the job.
func (c *Client) enqueue(ctx context.Context, program *ptemplate.Compiled, b ptemplate.Bindings,
	device string, opts SubmitOptions, tl *telemetry.Timeline) (*qrm.Ticket, error) {

	compiledFor, err := c.qrm.CompileTarget(device, opts.Pool)
	if err != nil {
		return nil, err
	}
	req := qrm.Request{
		Device: device, Template: program, Bindings: b,
		Shots: opts.Shots, Priority: opts.Priority, Deadline: opts.Deadline,
		MeasLevel: opts.MeasLevel, MeasReturn: opts.MeasReturn,
		CalibrationEpoch: program.Epoch, CompiledFor: compiledFor,
		Timeline: tl,
	}
	if opts.Pool != "" {
		req.Device, req.Pool = "", opts.Pool
	}
	return c.qrm.SubmitCtx(ctx, req)
}

// waitAll is the one ticket wait loop behind RunBatch and RunSweep: the
// result slice is parallel to tickets, and an entry that never got a ticket
// carries its submission error.
func waitAll(ctx context.Context, tickets []*qrm.Ticket, errs []error) []BatchResult {
	out := make([]BatchResult, len(tickets))
	for i, tk := range tickets {
		if tk == nil {
			out[i].Err = errs[i]
			continue
		}
		out[i].Result, out[i].Err = tk.Wait(ctx)
	}
	return out
}

// RunCtx is the synchronous context-aware path: compile, schedule, and
// wait, all bounded by one ctx.
func (c *Client) RunCtx(ctx context.Context, k *qpi.Circuit, device string, opts SubmitOptions) (*qpi.Result, error) {
	tk, err := c.SubmitCtx(ctx, k, device, opts)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
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
	wg.Wait()
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
	return waitAll(ctx, tickets, errs), nil
}

// NativeAdapter is the MQSS QPI Adapter: a compiled, in-process qpi.Backend
// bound to one device through the client — the paper's low-overhead path.
type NativeAdapter struct {
	Client *Client
	Target string
}

// Name implements qpi.Backend.
func (a *NativeAdapter) Name() string { return "qpi-native/" + a.Target }

// Submit implements qpi.Backend: the execution config is the client's
// submit options, and the scheduler ticket is wrapped as a qpi.Handle.
func (a *NativeAdapter) Submit(ctx context.Context, k *qpi.Circuit, cfg qpi.ExecConfig) (qpi.Handle, error) {
	tk, err := a.Client.SubmitCtx(ctx, k, a.Target, cfg)
	if err != nil {
		return nil, err
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
func (h *ticketHandle) Wait(ctx context.Context) (*qpi.Result, error) { return h.tk.Wait(ctx) }
