package qpi

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mqsspulse/internal/telemetry"
)

// This file is the execution half of the QPI: the context-aware,
// asynchronous counterpart of the paper's qExecute. Kernels are submitted
// to a Backend under a context.Context and tracked through Handle futures;
// functional options carry per-submission tuning (shots, priority,
// deadline, tag) without growing the positional signature.

// DefaultShots is the shot count used when no WithShots option is given.
const DefaultShots = 1024

// ExecStatus is the lifecycle state of an asynchronous execution.
type ExecStatus int

// Execution states.
const (
	ExecQueued ExecStatus = iota
	ExecRunning
	ExecDone
	ExecFailed
	ExecCancelled
)

// String implements fmt.Stringer.
func (s ExecStatus) String() string {
	switch s {
	case ExecQueued:
		return "queued"
	case ExecRunning:
		return "running"
	case ExecDone:
		return "done"
	case ExecFailed:
		return "failed"
	case ExecCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("ExecStatus(%d)", int(s))
	}
}

// ExecConfig is the resolved submission configuration a Backend receives.
// Callers build it through ExecOption values; backends read it.
type ExecConfig struct {
	// Shots is the number of measurement samples (DefaultShots if no
	// option is given).
	Shots int
	// Priority orders scheduler dispatch: higher runs first.
	Priority int
	// Tag is an optional caller label carried through the scheduler
	// (tracing, per-tenant accounting).
	Tag string
	// Pool, when non-empty, targets a named device pool instead of the
	// backend's default device: the scheduler places the job on the
	// least-loaded compatible member.
	Pool string
	// Deadline, when non-zero, bounds the whole execution: the client
	// hands it to the job's scheduler ticket, which cancels the job when it
	// passes.
	Deadline time.Time
	// MeasLevel selects the measurement level (discriminated counts by
	// default; kerneled or raw return IQ-plane acquisition records).
	MeasLevel MeasLevel
	// MeasReturn selects per-shot or shot-averaged acquisition records.
	MeasReturn MeasReturn
	// TraceID is the telemetry trace identifier carried through every
	// layer the submission crosses (client, scheduler, device, remote
	// wire). Start mints one when the caller leaves it empty, so every
	// execution is traceable; WithTraceID overrides it to correlate a
	// submission with an external tracing system. Ignored when Timeline is
	// set (the timeline carries its own).
	TraceID string
	// Timeline, when non-nil, is the trace the submission's lifecycle spans
	// are recorded onto — set by callers that already recorded spans (a
	// separate compile step) before submitting. Nil creates a fresh timeline
	// per submission.
	Timeline *telemetry.Timeline
	// CalibrationEpoch declares the calibration epoch a precompiled payload
	// was built against; it is only consulted where the caller did the
	// compiling (the remote adapter's payload path). Kernel submissions
	// derive the epoch from their own compile step and ignore this field.
	// Zero skips the dispatch-time staleness check.
	CalibrationEpoch int64
}

// ExecOption tunes one submission.
type ExecOption func(*ExecConfig)

// WithShots sets the number of measurement shots.
func WithShots(n int) ExecOption { return func(c *ExecConfig) { c.Shots = n } }

// WithShotWorkers returns an option that changes nothing.
//
// Deprecated: a job's shots are drawn serially on the goroutine that runs
// it. WithShotWorkers is kept only because the benchmark compiles against
// it.
func WithShotWorkers(int) ExecOption { return func(*ExecConfig) {} }

// WithPriority sets the scheduler priority (higher dispatches first).
func WithPriority(p int) ExecOption { return func(c *ExecConfig) { c.Priority = p } }

// WithTag attaches a caller label to the submission.
func WithTag(tag string) ExecOption { return func(c *ExecConfig) { c.Tag = tag } }

// WithPool targets a named device pool (see the QRM's RegisterPool)
// instead of the backend's default device: the scheduler places the job on
// the least-loaded compatible pool member, and idle members steal it if
// its first placement stalls.
func WithPool(name string) ExecOption { return func(c *ExecConfig) { c.Pool = name } }

// WithDeadline bounds the execution: past it the job is cancelled wherever
// it is (queued or, on devices that support aborts, running).
func WithDeadline(t time.Time) ExecOption { return func(c *ExecConfig) { c.Deadline = t } }

// WithTimeout is WithDeadline relative to now.
func WithTimeout(d time.Duration) ExecOption {
	return func(c *ExecConfig) { c.Deadline = time.Now().Add(d) }
}

// WithMeasLevel selects the measurement level of the returned data:
// MeasDiscriminated (counts, the default), MeasKerneled (integrated IQ
// points per shot), or MeasRaw (full capture traces).
func WithMeasLevel(l MeasLevel) ExecOption { return func(c *ExecConfig) { c.MeasLevel = l } }

// WithMeasReturn selects per-shot (ReturnSingle) or shot-averaged
// (ReturnAverage) acquisition records at kerneled/raw measurement levels.
func WithMeasReturn(r MeasReturn) ExecOption { return func(c *ExecConfig) { c.MeasReturn = r } }

// WithTraceID sets the telemetry trace identifier instead of letting
// Start mint one — the hook for correlating a submission with an external
// tracing system.
func WithTraceID(id string) ExecOption { return func(c *ExecConfig) { c.TraceID = id } }

// NewExecConfig resolves options over the defaults.
func NewExecConfig(opts ...ExecOption) ExecConfig {
	cfg := ExecConfig{Shots: DefaultShots}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Handle is a future tracking one asynchronous execution. Implementations
// are provided by backends (the MQSS client wraps its scheduler ticket).
type Handle interface {
	// ID identifies the submission within its backend.
	ID() string
	// Status returns the execution state without blocking.
	Status() ExecStatus
	// Wait blocks until the execution finishes or ctx is cancelled. A
	// cancelled ctx abandons only the wait (the job keeps running) and
	// returns ctx.Err().
	Wait(ctx context.Context) (*Result, error)
	// Cancel requests cancellation of the execution itself: queued work
	// never starts; running work is aborted where the device supports it.
	Cancel()
	// Timeline returns the job's telemetry trace: the lifecycle spans
	// (compile, queue-wait, dispatch, device-execute, ...) the stack
	// records while the job runs, to be read once it is terminal.
	// Backends that record no telemetry return nil.
	Timeline() *telemetry.Timeline
}

// Backend executes finished kernels — implemented by the MQSS client
// (which routes through QRM, the JIT compiler and QDMI) and by direct
// device bindings in tests.
type Backend interface {
	// Name identifies the backend.
	Name() string
	// Submit starts an asynchronous execution under ctx: cancelling ctx
	// cancels the job, queued or running.
	Submit(ctx context.Context, c *Circuit, cfg ExecConfig) (Handle, error)
}

// Start validates a kernel and submits it asynchronously — the handle-based
// form of the paper's qExecute(dev, circuit, nshots).
func Start(ctx context.Context, b Backend, c *Circuit, opts ...ExecOption) (Handle, error) {
	if c.Err() != nil {
		return nil, c.Err()
	}
	if !c.Finished() {
		return nil, errors.New("qpi: execute of unfinished circuit (call End)")
	}
	cfg := NewExecConfig(opts...)
	if cfg.Shots <= 0 {
		return nil, fmt.Errorf("qpi: non-positive shot count %d", cfg.Shots)
	}
	if cfg.TraceID == "" {
		// Every execution is traceable: the ID rides ExecConfig into the
		// backend and from there through scheduler, device, and wire.
		cfg.TraceID = telemetry.NewTraceID()
	}
	return b.Submit(ctx, c, cfg)
}

// Run is the synchronous form: Start then Wait under the same context, so
// one ctx bounds compile, queueing, and execution end to end.
func Run(ctx context.Context, b Backend, c *Circuit, opts ...ExecOption) (*Result, error) {
	h, err := Start(ctx, b, c, opts...)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}
