// Package qrm implements the Quantum Resource Manager of Fig. 2: the
// second-level scheduler that brokers a fleet of heterogeneous devices
// behind one submission interface.
//
// Requests target either a single named device or a named pool of
// interchangeable devices (see RegisterPool). Every device runs one dispatch
// worker — QPUs serialize execution. Placement is pull-based: the first idle
// device takes the highest-priority compatible job, so pool work always
// lands on a least-loaded member, and idle devices steal queued work from
// busy pool siblings so a slow QPU never strands jobs while a sibling sits
// idle. Admission control bounds per-target queue depth (SetMaxQueueDepth);
// submissions beyond it fail fast with ErrOverloaded so callers can back
// off. Only the scheduler submits to a device: calibration, VQE and user
// kernels are all tickets in the same heaps, so maintenance interleaves with
// user work by priority — the paper's "resource-aware calibration planning"
// (Section 2.1).
//
// Submission is context-aware: every ticket is bound to the context it was
// submitted under. Cancelling that context (or calling Ticket.Cancel)
// aborts queued work before it ever reaches a device and, where the device
// job supports the qdmi.RunningCanceller capability, aborts in-flight
// execution too.
package qrm

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/telemetry"
)

// ErrCancelled is the sentinel wrapped into the error of a cancelled
// ticket; it aliases qdmi.ErrCancelled so errors.Is works across layers.
var ErrCancelled = qdmi.ErrCancelled

// ErrOverloaded is the sentinel wrapped into submission errors rejected by
// admission control: the target's queue is at its configured depth limit.
// Callers should back off and retry; the error crosses the remote wire
// protocol, so errors.Is works against remote submissions too.
var ErrOverloaded = errors.New("qrm: overloaded")

// ErrNoSuchTarget is the sentinel wrapped into submission errors naming an
// unknown device or pool; test with errors.Is.
var ErrNoSuchTarget = errors.New("qrm: no such target")

// ErrStaleCalibration is the sentinel wrapped into the failure of a job
// whose payload was compiled against a calibration epoch the target device
// has since left (see qdmi.DevicePropCalibrationEpoch): the scheduler
// refuses to ship pulses baked from a superseded calibration table.
// Callers should recompile and resubmit; the error crosses the remote wire
// protocol, so errors.Is works against remote submissions too.
var ErrStaleCalibration = errors.New("qrm: stale calibration")

// Request describes one job submission.
type Request struct {
	// Device names a single target device. Exactly one of Device and Pool
	// must be set.
	Device string
	// Pool names a target device pool (see RegisterPool): the scheduler
	// places the job on the least-loaded member.
	Pool string
	// Payload is the compiled exchange-format program.
	Payload []byte
	// Format identifies the payload encoding.
	Format qdmi.ProgramFormat
	// Shots is the number of measurement samples; it must be positive.
	Shots int
	// Priority orders dispatch: higher runs first; FIFO within a level.
	Priority int
	// Tag is an optional caller label carried through to the ticket
	// (tracing, per-tenant accounting).
	Tag string
	// MeasLevel selects the measurement level of the returned data
	// (discriminated counts by default). Non-discriminated levels require
	// the target device to implement qdmi.AcquisitionSubmitter.
	MeasLevel readout.MeasLevel
	// MeasReturn selects per-shot or shot-averaged acquisition records.
	MeasReturn readout.MeasReturn
	// CalibrationEpoch is the calibration epoch of the device the payload
	// was compiled against; zero disables the dispatch-time staleness
	// check (payloads from epoch-unaware compilers or devices).
	CalibrationEpoch int64
	// CompiledFor names the device the payload was compiled against — for
	// pool submissions the deterministic representative member, which may
	// differ from the device the job is placed on. Empty means the
	// dispatch device itself.
	CompiledFor string
	// Template is a compiled program — the form every client job takes,
	// local or off the wire; Payload/Format is for callers that hold only
	// text. When set, Payload must be empty: the scheduler hands the program's
	// module to a qdmi.ModuleSubmitter device directly, with Bindings when
	// the program has parameters, and the device binds them; a device
	// without that capability gets text, bound here. Either way the point is
	// bound at dispatch time, after the epoch check.
	Template *ptemplate.Compiled
	// Bindings is this job's sweep point: one value per Template parameter
	// (none for a concrete kernel). It is validated at submit and again at
	// dispatch, and must not be modified until the ticket resolves.
	Bindings ptemplate.Bindings
	// Timeline, when non-nil, is the job's telemetry trace: the scheduler
	// records queue-wait and dispatch spans onto it, and hands it to the
	// device through qdmi.JobOptions for the device-side stages — a template
	// point's bind among them, which the scheduler records itself only for a
	// device that takes text. Nil submissions run untraced (per-device queue-wait
	// histograms still accumulate when SetTelemetry installed a registry).
	Timeline *telemetry.Timeline
}

// queued pairs a ticket with its request, the pool it targets (nil for a
// device-targeted job) and its enqueue time (the queue-wait span's start).
type queued struct {
	ticket   *Ticket
	req      Request
	pool     *poolState
	enqueued time.Time
}

// jobHeap orders by (priority desc, seq asc).
type jobHeap []*queued

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return jobLess(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*queued)) }
func (h *jobHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// jobLess is the dispatch order: higher priority first, FIFO within a level.
func jobLess(a, b *queued) bool {
	if a.ticket.priority != b.ticket.priority {
		return a.ticket.priority > b.ticket.priority
	}
	return a.ticket.seq < b.ticket.seq
}

// Scheduler is the QRM instance over a QDMI session: a fleet scheduler
// over per-device queues, named pools, and a work-stealing placement
// engine. The zero value is not usable; construct with New.
type Scheduler struct {
	session *qdmi.Session

	mu sync.Mutex
	// cond is the fleet-wide wakeup: workers wait here for new work and
	// every submission Broadcasts. Waking all idle workers is O(devices)
	// per submit, but only idle workers are parked here — a busy
	// fleet wakes almost nobody — and steal eligibility crosses devices,
	// so any narrower wake set would have to be computed per submission.
	// Revisit with per-device conds if fleets grow past dozens of devices.
	cond *sync.Cond
	wg   sync.WaitGroup

	devices  map[string]*deviceState
	pools    map[string]*poolState
	nextID   int64
	nextSeq  int64
	maxDepth int // per-target queued-job bound; 0 = unbounded
	closed   bool

	// Fleet-wide counters (per-device ones live on deviceState).
	n struct {
		submitted, rejected, steals  int64
		completed, failed, cancelled atomic.Int64
	}

	// metrics holds the fleet registry's handles (see SetTelemetry).
	metrics atomic.Pointer[fleetMetrics]
}

// fleetMetrics are the "qrm/" counters of the registry reg, resolved once
// per SetTelemetry so that a job bumps them with no lock held or taken.
// With no registry every handle is nil, and a nil handle counts nothing.
type fleetMetrics struct {
	reg                                                         *telemetry.Registry
	submitted, steals, dispatched, completed, failed, cancelled *telemetry.Counter
}

func newFleetMetrics(reg *telemetry.Registry) *fleetMetrics {
	c := func(name string) *telemetry.Counter { return reg.Counter("qrm/" + name) }
	return &fleetMetrics{reg, c("submitted"), c("steals"), c("dispatched"), c("completed"), c("failed"), c("cancelled")}
}

// New creates a scheduler over a QDMI session.
func New(session *qdmi.Session) *Scheduler {
	s := &Scheduler{
		session: session,
		devices: map[string]*deviceState{},
		pools:   map[string]*poolState{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.Store(newFleetMetrics(nil))
	return s
}

// SetTelemetry installs the fleet metrics registry the scheduler records
// into: queue-wait latency histograms per device ("queue_wait/device/<name>")
// and pool ("queue_wait/pool/<name>"), plus dispatch, steal, and outcome
// counters under "qrm/". Nil disables. The client installs its registry
// here so one snapshot covers cache, scheduler, and device stages.
func (s *Scheduler) SetTelemetry(reg *telemetry.Registry) { s.metrics.Store(newFleetMetrics(reg)) }

// SubmitCtx enqueues a request bound to ctx and returns its ticket.
// Cancelling ctx cancels the ticket: queued work never dispatches, and
// in-flight work is aborted where the device supports it.
//
// A request naming an unknown device or pool fails with ErrNoSuchTarget;
// one arriving while the target's queue is at its depth limit fails with
// ErrOverloaded (see SetMaxQueueDepth).
func (s *Scheduler) SubmitCtx(ctx context.Context, req Request) (*Ticket, error) {
	if req.Shots <= 0 {
		return nil, fmt.Errorf("%w: qrm: non-positive shots %d", qdmi.ErrInvalidArgument, req.Shots)
	}
	if req.Template != nil {
		if len(req.Payload) != 0 {
			return nil, fmt.Errorf("%w: qrm: request carries both a payload and a template", qdmi.ErrInvalidArgument)
		}
		// Bad sweep points fail here — before queueing, dispatch, or any
		// device involvement — with a typed ErrBadParam the caller can test.
		if err := req.Template.Validate(req.Bindings); err != nil {
			return nil, err
		}
	} else if len(req.Payload) == 0 {
		return nil, fmt.Errorf("%w: qrm: empty payload", qdmi.ErrInvalidArgument)
	}
	if (req.Device == "") == (req.Pool == "") {
		return nil, fmt.Errorf("%w: request must target exactly one of Device or Pool", qdmi.ErrInvalidArgument)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qrm: submit: %w", err)
	}
	// Resolve a device target eagerly so unknown names fail at submit time.
	if req.Device != "" {
		if _, err := s.session.Device(req.Device); err != nil {
			return nil, fmt.Errorf("%w: device %q", ErrNoSuchTarget, req.Device)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("qrm: scheduler closed")
	}
	// Resolve the target queue and apply admission control before the
	// ticket exists, so rejected work leaves no trace beyond the counter.
	var target *jobHeap
	pool := s.pools[req.Pool] // nil for a device-targeted job
	if req.Pool != "" {
		if pool == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: pool %q", ErrNoSuchTarget, req.Pool)
		}
		target = &pool.heap
	} else {
		target = &s.ensureDeviceLocked(req.Device).heap
	}
	if s.maxDepth > 0 && target.Len() >= s.maxDepth {
		s.n.rejected++
		depth := target.Len()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: target %q queue depth %d at limit %d",
			ErrOverloaded, req.Device+req.Pool, depth, s.maxDepth)
	}
	s.nextID++
	s.nextSeq++
	t := newTicket(ctx, s.nextID, req.Priority, s.nextSeq, req.Tag, req.Timeline)
	heap.Push(target, &queued{ticket: t, req: req, pool: pool, enqueued: time.Now()})
	s.n.submitted++
	s.cond.Broadcast() // any idle worker may be able to take or steal this
	s.mu.Unlock()
	s.metrics.Load().submitted.Add(1)
	return t, nil
}

// worker is a device's dispatch worker: it drains the device's own queue,
// the queues of pools the device belongs to, and — when all of those are
// empty — steals queued work from pool siblings.
func (s *Scheduler) worker(d *deviceState) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		item, stolen := s.takeLocked(d)
		if item == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		if stolen {
			d.stolen++
			s.n.steals++
		}
		d.inflight++
		if d.heap.Len() > 0 {
			// This device just went busy with work still queued on it: give
			// idle pool siblings a chance to steal.
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if stolen {
			s.metrics.Load().steals.Add(1)
		}
		s.runItem(d, item)
		s.mu.Lock()
		d.inflight--
	}
}

// takeLocked picks the next job for device d: the best-priority item across
// d's own queue and its pools' queues, falling back to stealing the
// best-priority item queued on a busy pool sibling. Stealing only targets
// siblings that hold a job: explicit device targeting is
// honored while the device can still make progress, and overridden only
// when work would otherwise strand behind a busy QPU. The boolean reports
// a steal.
func (s *Scheduler) takeLocked(d *deviceState) (*queued, bool) {
	if h := bestSource(d.sources); h != nil {
		return heap.Pop(h).(*queued), false
	}
	var victims []*jobHeap
	for _, p := range d.pools {
		for _, sib := range p.members {
			if sib != d && sib.inflight > 0 {
				victims = append(victims, &sib.heap)
			}
		}
	}
	if h := bestSource(victims); h != nil {
		return heap.Pop(h).(*queued), true
	}
	return nil, false
}

// bestSource returns the heap whose top item dispatches first, or nil if
// every source is empty.
func bestSource(sources []*jobHeap) *jobHeap {
	var best *jobHeap
	for _, h := range sources {
		if h.Len() == 0 {
			continue
		}
		if best == nil || jobLess((*h)[0], (*best)[0]) {
			best = h
		}
	}
	return best
}

// runItem executes one dequeued job on device d: staleness gate, device
// dispatch, and result/error/cancellation bookkeeping.
func (s *Scheduler) runItem(d *deviceState, item *queued) {
	if !item.ticket.move(qdmi.JobQueued, qdmi.JobRunning, nil, nil) {
		// Cancelled while queued: the ticket already resolved itself; the
		// device never sees the job.
		s.countCancelled()
		return
	}
	// Queue-wait ends here — the instant the job leaves the queue for a
	// device. It is a first-class latency: the span lands on the job's
	// own timeline, and the duration feeds the fleet histograms keyed by
	// dispatch device and (for pool submissions) pool.
	wait := time.Since(item.enqueued)
	item.req.Timeline.Record(telemetry.StageQueueWait, d.name, item.enqueued, wait, 0)
	m := s.metrics.Load()
	m.reg.Observe(d.queueWaitName, wait)
	if item.pool != nil {
		m.reg.Observe(item.pool.queueWaitName, wait)
	}
	item.ticket.device.Store(&d.name)
	dev, err := s.session.Device(d.name)
	if err != nil {
		s.fail(item, err)
		return
	}
	// Staleness gate: a payload compiled at epoch N must not dispatch once
	// the device it was compiled against has recalibrated past N — a job
	// can sit queued across a recalibration (calibration jobs overtake it in
	// this very queue). There is no exception: the caller recompiles and
	// resubmits.
	if err := s.checkEpoch(d.name, item.req); err != nil {
		s.fail(item, err)
		return
	}
	// A cancel that landed since the job left the queue still prevents
	// dispatch; the ticket is running, so resolving it is this worker's job.
	if item.ticket.ctx.Err() != nil {
		s.cancelled(item)
		return
	}
	// The dispatch span stays open across the whole device round trip, with
	// the bind and device-side spans nested under its ID, and is recorded
	// when dispatch returns — before the ticket resolves below, so a waiter
	// woken by ticket completion always finds it on the timeline.
	var (
		st  qdmi.JobStatus
		res *qdmi.Result
	)
	item.req.Timeline.Span(telemetry.StageDispatch, d.name, 0, func(id telemetry.SpanID) {
		st, res, err = s.dispatch(d, dev, item, id)
	})
	switch st {
	case qdmi.JobCancelled:
		s.cancelled(item)
	case qdmi.JobDone:
		s.n.completed.Add(1)
		m.completed.Add(1)
		item.ticket.finish(res, nil, qdmi.JobDone)
	default: // JobFailed
		s.fail(item, err)
	}
}

// dispatch hands item's job to dev under the dispatch span and waits for it
// to end or for the ticket to be cancelled — which, for a job that runs on
// its first Wait (a SimDevice's), is this worker executing it under the
// ticket's context. It reports how the job ended — JobDone with its result,
// JobFailed with its error, or JobCancelled — and leaves resolving the
// ticket to runItem.
func (s *Scheduler) dispatch(d *deviceState, dev qdmi.Device, item *queued, span telemetry.SpanID) (qdmi.JobStatus, *qdmi.Result, error) {
	job, err := submitToDevice(dev, item.req, span)
	if err != nil {
		return qdmi.JobFailed, nil, err
	}
	d.dispatched.Add(1)
	s.metrics.Load().dispatched.Add(1)
	st := job.Wait(item.ticket.ctx)
	if !st.Terminal() {
		// The ticket was cancelled while a job the device runs on a thread
		// of its own was in flight. Abort it where the device supports that;
		// otherwise fall back to the queued-only cancel.
		if rc, ok := job.(qdmi.RunningCanceller); ok {
			_ = rc.CancelRunning()
		} else {
			_ = job.Cancel()
		}
		if st = job.Status(); !st.Terminal() {
			// The device cannot abort: the ticket resolves as cancelled
			// and the orphaned job finishes unobserved, on that thread,
			// recording no spans (qdmi.JobOptions.Telemetry): this worker
			// stays the timeline's one writer.
			st = qdmi.JobCancelled
		}
	}
	if st == qdmi.JobCancelled {
		return qdmi.JobCancelled, nil, nil
	}
	res, err := job.Result()
	if err == nil && st == qdmi.JobDone {
		return qdmi.JobDone, res, nil
	}
	if err == nil {
		err = fmt.Errorf("qrm: job %d failed", item.ticket.id)
	}
	return qdmi.JobFailed, nil, err
}

// checkEpoch verifies at dispatch time that the device the payload was
// compiled against still sits at the compile-time calibration epoch.
// Requests without an epoch, and compile targets without the epoch
// property, skip the check.
func (s *Scheduler) checkEpoch(dispatchDevice string, req Request) error {
	if req.CalibrationEpoch == 0 {
		return nil
	}
	target := req.CompiledFor
	if target == "" {
		target = dispatchDevice
	}
	dev, err := s.session.Device(target)
	if err != nil {
		// The compile target vanished from the registry; the dispatch
		// device decides the job's fate on its own.
		return nil
	}
	epoch, err := qdmi.QueryCalibrationEpoch(dev)
	if err != nil {
		if errors.Is(err, qdmi.ErrNotSupported) {
			return nil // epoch-unaware device: no staleness contract to enforce
		}
		// The device advertises the property but cannot answer it sanely;
		// skipping the check here would silently drop staleness protection.
		return fmt.Errorf("qrm: calibration epoch of %q: %w", target, err)
	}
	if epoch != req.CalibrationEpoch {
		return fmt.Errorf("%w: payload compiled at calibration epoch %d, device %q is now at %d",
			ErrStaleCalibration, req.CalibrationEpoch, target, epoch)
	}
	return nil
}

// submitToDevice dispatches a request, routing through the acquisition
// capability when the device offers it; devices without it can only serve
// discriminated counts. A compiled program (req.Template) prefers the
// qdmi.ModuleSubmitter capability, which skips the emit/parse round trip:
// the device gets the cached module itself, shared and unmodified, and — for
// a template — the point, validated here, after the epoch gate in runItem, so
// a stale template fails with ErrStaleCalibration before any binding work.
// The device binds it and records the bind span. A device without the
// capability receives text through the ordinary path: the program's text,
// emitted once however many jobs ask, or a point bound here and emitted.
func submitToDevice(dev qdmi.Device, req Request, parent telemetry.SpanID) (qdmi.Job, error) {
	opts := qdmi.JobOptions{
		Shots: req.Shots, MeasLevel: req.MeasLevel, MeasReturn: req.MeasReturn,
		Telemetry: req.Timeline, TelemetryParent: parent,
	}
	if p := req.Template; p != nil {
		if ms, ok := dev.(qdmi.ModuleSubmitter); ok {
			if len(p.Params) > 0 {
				if err := p.Validate(req.Bindings); err != nil {
					return nil, err
				}
				opts.Bindings = req.Bindings
			}
			return ms.SubmitModule(p.Module, opts)
		}
		if len(p.Params) == 0 {
			req.Payload = p.Text()
		} else {
			bindStart := time.Now()
			mod, err := p.Bind(req.Bindings)
			if err != nil {
				return nil, err
			}
			req.Timeline.Record(telemetry.StageBind, dev.Name(), bindStart, time.Since(bindStart), parent)
			req.Payload = mod.Emit()
		}
		req.Format = p.Format
	}
	if as, ok := dev.(qdmi.AcquisitionSubmitter); ok {
		return as.SubmitJobOpts(req.Payload, req.Format, opts)
	}
	if req.MeasLevel != readout.LevelDiscriminated {
		return nil, fmt.Errorf("%w: device %s cannot return %s measurement data",
			qdmi.ErrNotSupported, dev.Name(), req.MeasLevel)
	}
	return dev.SubmitJob(req.Payload, req.Format, req.Shots)
}

func (s *Scheduler) fail(item *queued, err error) {
	s.n.failed.Add(1)
	s.metrics.Load().failed.Add(1)
	item.ticket.finish(nil, err, qdmi.JobFailed)
}

func (s *Scheduler) cancelled(item *queued) {
	s.countCancelled()
	item.ticket.finish(nil, item.ticket.cancelErr(), qdmi.JobCancelled)
}

func (s *Scheduler) countCancelled() {
	s.n.cancelled.Add(1)
	s.metrics.Load().cancelled.Add(1)
}

// Close stops accepting jobs and shuts the workers down after their queues
// drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
