// Package qrm implements the Quantum Resource Manager of Fig. 2: the
// second-level scheduler that brokers a fleet of heterogeneous devices
// behind one submission interface.
//
// Requests target either a single named device or a named pool of
// interchangeable devices (see RegisterPool). A device runs one job at a
// time — QPUs serialize execution — on its dispatch worker or, when nobody
// is ahead of the job, on the goroutine waiting for it (Ticket.Wait).
// Placement is pull-based: the first idle device takes the highest-priority
// compatible job, so pool work always lands on a least-loaded member, and
// idle devices steal queued work from busy pool siblings so a slow QPU never
// strands jobs while a sibling sits idle. Admission control bounds
// per-target queue depth (SetMaxQueueDepth); submissions beyond it fail fast
// with ErrOverloaded so callers can back off. Only the scheduler submits to
// a device: calibration, VQE and user kernels are all tickets in the same
// heaps, so maintenance interleaves with user work by priority — the paper's
// "resource-aware calibration planning" (Section 2.1).
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
	"slices"
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
	// Deadline, when non-zero, bounds the job wherever it is: the ticket's
	// own context expires at it, and the ticket resolves cancelled with an
	// error that is both ErrCancelled and context.DeadlineExceeded. A
	// deadline already past fails the submission.
	Deadline time.Time
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
	// module to a qdmi.ModuleSubmitter device, with Bindings when the program
	// has parameters, and the device binds them at dispatch time, after the
	// epoch check. A device without that capability fails the job with
	// qdmi.ErrNotSupported.
	Template *ptemplate.Compiled
	// Bindings is this job's sweep point: one value per Template parameter
	// (none for a concrete kernel). It is validated at submit and again at
	// dispatch, and must not be modified until the ticket resolves.
	Bindings ptemplate.Bindings
	// Timeline, when non-nil, is the job's telemetry trace: the scheduler
	// records queue-wait and dispatch spans onto it, and hands it to the
	// device through qdmi.JobOptions for the device-side stages — a template
	// point's bind among them. Nil submissions run untraced (per-device
	// queue-wait histograms still accumulate when SetTelemetry installed a
	// registry).
	Timeline *telemetry.Timeline
}

// jobHeap is a queue of tickets, ordered by (priority desc, ID asc).
type jobHeap []*Ticket

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return jobLess(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*Ticket)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// jobLess is the dispatch order: higher priority first, FIFO within a level
// (IDs rise with submission order).
func jobLess(a, b *Ticket) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	return a.id < b.id
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
	if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
		return nil, fmt.Errorf("qrm: submit: %w", context.DeadlineExceeded)
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
	var (
		target *jobHeap
		dev    *deviceState
	)
	pool := s.pools[req.Pool] // nil for a device-targeted job
	if req.Pool != "" {
		if pool == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: pool %q", ErrNoSuchTarget, req.Pool)
		}
		target = &pool.heap
	} else {
		dev = s.ensureDeviceLocked(req.Device)
		target = &dev.heap
	}
	if s.maxDepth > 0 && target.Len() >= s.maxDepth {
		s.n.rejected++
		depth := target.Len()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: target %q queue depth %d at limit %d",
			ErrOverloaded, req.Device+req.Pool, depth, s.maxDepth)
	}
	s.nextID++
	t := newTicket(ctx, s.nextID, &req)
	t.s, t.dev, t.pool, t.enqueued = s, dev, pool, time.Now()
	heap.Push(target, t)
	s.n.submitted++
	s.cond.Broadcast() // any idle worker may be able to take or steal this
	s.mu.Unlock()
	s.metrics.Load().submitted.Add(1)
	return t, nil
}

// worker is a device's dispatch worker: it drains the device's own queue,
// the queues of pools the device belongs to, and — when all of those are
// empty — steals queued work from pool siblings. While a waiter that claimed
// the device runs a job (claim), the worker takes nothing and does not exit,
// so Close waits for that run too.
func (s *Scheduler) worker(d *deviceState) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if !d.busy.Load() {
			if h, stolen := s.nextLocked(d); h != nil {
				s.hold(d, heap.Pop(h).(*Ticket), stolen)
				continue
			}
			if s.closed {
				s.mu.Unlock()
				return
			}
		}
		s.cond.Wait()
	}
}

// claim runs t on the goroutine waiting for it when nobody is ahead of it:
// a device t may run on without a steal — the one it names, or a member of
// its pool — holds no job, and its worker would take t next. The waiter and
// that worker race under s.mu, and whichever pops t runs it. A waiter whose
// devices are all busy reads their flags and leaves without the lock.
func (s *Scheduler) claim(t *Ticket) {
	one := [1]*deviceState{t.dev}
	targets := one[:]
	if t.pool != nil {
		targets = t.pool.members
	}
	if !slices.ContainsFunc(targets, func(d *deviceState) bool { return !d.busy.Load() }) {
		return
	}
	s.mu.Lock()
	for _, d := range targets {
		if d.busy.Load() {
			continue
		}
		if h := bestSource(d.sources); h != nil && (*h)[0] == t {
			heap.Pop(h)
			s.hold(d, t, false)
			if h, _ := s.nextLocked(d); h != nil || s.closed {
				// The worker parked while the device was claimed.
				s.cond.Broadcast()
			}
			break
		}
	}
	s.mu.Unlock()
}

// hold runs t on d from the calling goroutine — d's worker or a claiming
// waiter — with d busy until runItem returns. The caller holds s.mu, which
// hold releases around the run and holds again on return.
func (s *Scheduler) hold(d *deviceState, t *Ticket, stolen bool) {
	if stolen {
		d.stolen++
		s.n.steals++
	}
	d.busy.Store(true)
	if d.heap.Len() > 0 {
		// This device just went busy with work still queued on it: give
		// idle pool siblings a chance to steal.
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if stolen {
		s.metrics.Load().steals.Add(1)
	}
	s.runItem(d, t)
	s.mu.Lock()
	d.busy.Store(false)
}

// nextLocked returns the queue device d takes its next job from: the
// best-priority head across d's own queue and its pools' queues, falling
// back to the best head queued on a busy pool sibling. Stealing only
// targets siblings that hold a job: explicit device targeting is honored
// while the device can still make progress, and overridden only when work
// would otherwise strand behind a busy QPU. The boolean reports a steal.
func (s *Scheduler) nextLocked(d *deviceState) (*jobHeap, bool) {
	if h := bestSource(d.sources); h != nil {
		return h, false
	}
	var best *jobHeap
	for _, p := range d.pools {
		for _, sib := range p.members {
			if sib != d && sib.busy.Load() && sib.heap.Len() > 0 &&
				(best == nil || jobLess(sib.heap[0], (*best)[0])) {
				best = &sib.heap
			}
		}
	}
	return best, best != nil
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
func (s *Scheduler) runItem(d *deviceState, t *Ticket) {
	if !t.move(qdmi.JobQueued, qdmi.JobRunning, nil, nil) {
		// Cancelled while queued: the ticket already resolved itself; the
		// device never sees the job.
		s.countCancelled()
		return
	}
	// Queue-wait ends here — the instant the job leaves the queue for a
	// device. It is a first-class latency: the span lands on the job's
	// own timeline, and the duration feeds the fleet histograms keyed by
	// dispatch device and (for pool submissions) pool.
	wait := time.Since(t.enqueued)
	t.req.Timeline.Record(telemetry.StageQueueWait, d.name, t.enqueued, wait, 0)
	m := s.metrics.Load()
	d.queueWait.in(m.reg).Observe(wait)
	if t.pool != nil {
		t.pool.queueWait.in(m.reg).Observe(wait)
	}
	t.device.Store(&d.name)
	dev, err := s.session.Device(d.name)
	if err != nil {
		s.fail(t, err)
		return
	}
	// Staleness gate: a payload compiled at epoch N must not dispatch once
	// the device it was compiled against has recalibrated past N — a job
	// can sit queued across a recalibration (calibration jobs overtake it in
	// this very queue). There is no exception: the caller recompiles and
	// resubmits.
	if err := s.checkEpoch(d.name, t.req); err != nil {
		s.fail(t, err)
		return
	}
	// A cancel that landed since the job left the queue still prevents
	// dispatch; the ticket is running, so resolving it is up to this goroutine.
	if t.ctx.Err() != nil {
		s.cancelled(t)
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
	t.req.Timeline.Span(telemetry.StageDispatch, d.name, 0, func(id telemetry.SpanID) {
		st, res, err = s.dispatch(d, dev, t, id)
	})
	switch st {
	case qdmi.JobCancelled:
		s.cancelled(t)
	case qdmi.JobDone:
		s.n.completed.Add(1)
		m.completed.Add(1)
		t.finish(res, nil, qdmi.JobDone)
	default: // JobFailed
		s.fail(t, err)
	}
}

// dispatch hands t's job to dev under the dispatch span and waits for it
// to end or for the ticket to be cancelled — which, for a job that runs on
// its first Wait (a SimDevice's), is this goroutine executing it under the
// ticket's context. It reports how the job ended — JobDone with its result,
// JobFailed with its error, or JobCancelled — and leaves resolving the
// ticket to runItem.
func (s *Scheduler) dispatch(d *deviceState, dev qdmi.Device, t *Ticket, span telemetry.SpanID) (qdmi.JobStatus, *qdmi.Result, error) {
	job, err := submitToDevice(dev, t.req, span)
	if err != nil {
		return qdmi.JobFailed, nil, err
	}
	d.dispatched.Add(1)
	s.metrics.Load().dispatched.Add(1)
	st := job.Wait(&t.ctx)
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
			// recording no spans (qdmi.JobOptions.Telemetry): this goroutine
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
		err = fmt.Errorf("qrm: job %d failed", t.id)
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

// submitToDevice dispatches a request. A compiled program (req.Template)
// reaches the device as itself, through the qdmi.ModuleSubmitter capability:
// the cached module, shared and unmodified, and — for a template — the point,
// validated here, after the epoch gate in runItem, so a stale template fails
// with ErrStaleCalibration before any binding work. The device binds it and
// records the bind span; a device without the capability cannot take the
// job (qdmi.ErrNotSupported). Text (req.Payload) goes through the
// acquisition capability when the device offers it; devices without it can
// only serve discriminated counts.
func submitToDevice(dev qdmi.Device, req Request, parent telemetry.SpanID) (qdmi.Job, error) {
	opts := qdmi.JobOptions{
		Shots: req.Shots, MeasLevel: req.MeasLevel, MeasReturn: req.MeasReturn,
		Telemetry: req.Timeline, TelemetryParent: parent,
	}
	if p := req.Template; p != nil {
		ms, ok := dev.(qdmi.ModuleSubmitter)
		if !ok {
			return nil, fmt.Errorf("%w: device %s takes no compiled programs", qdmi.ErrNotSupported, dev.Name())
		}
		if len(p.Params) > 0 {
			if err := p.Validate(req.Bindings); err != nil {
				return nil, err
			}
			opts.Bindings = req.Bindings
		}
		return ms.SubmitModule(p.Module, opts)
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

func (s *Scheduler) fail(t *Ticket, err error) {
	s.n.failed.Add(1)
	s.metrics.Load().failed.Add(1)
	t.finish(nil, err, qdmi.JobFailed)
}

func (s *Scheduler) cancelled(t *Ticket) {
	s.countCancelled()
	t.finish(nil, t.cancelErr(), qdmi.JobCancelled)
}

func (s *Scheduler) countCancelled() {
	s.n.cancelled.Add(1)
	s.metrics.Load().cancelled.Add(1)
}

// Close stops accepting jobs and shuts the workers down after their queues
// drain and any job a waiter claimed has run.
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
