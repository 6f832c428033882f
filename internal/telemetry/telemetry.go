// Package telemetry is the stack's zero-dependency tracing and metrics
// layer — the observability substrate operators at the HPC-QC boundary use
// to answer "where did my job's time go: compile, queue, bind, dispatch,
// or hardware?".
//
// Two surfaces:
//
//   - Per-job tracing: a Timeline collects the ordered lifecycle Spans of
//     one submission as it crosses the stack (qpi → client → qrm → qdmi →
//     device, and back over the remote wire). Every layer appends its
//     stage span in turn; the caller reads the assembled trace from
//     qpi.Handle.Timeline once the job is terminal.
//   - Fleet metrics: a Registry of atomic counters and log2-bucketed
//     latency histograms, safe for concurrent use. Timelines attached to a
//     registry feed their stage durations into it automatically, and the
//     scheduler records queue-wait distributions per device and pool.
//
// Every Timeline method is nil-receiver safe, so instrumentation points
// thread a possibly-nil *Timeline without guarding call sites; an
// uninstrumented submission costs a few nil checks and nothing else.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Stage labels one lifecycle phase of a job; the typed constants below are
// the vocabulary every layer records with, so histograms and timelines
// aggregate across submission paths.
type Stage string

// The job lifecycle stages, in the order a healthy submission visits them.
const (
	// StageCompile covers kernel lowering through the client (including
	// the cache probe).
	StageCompile Stage = "compile"
	// StageCacheHit marks a compile served entirely from the lowering
	// cache; recorded as a child of the compile span.
	StageCacheHit Stage = "cache-hit"
	// StageCacheMiss marks a compile that fell through to the JIT
	// compiler; recorded as a child of the compile span.
	StageCacheMiss Stage = "cache-miss"
	// StageBind covers dispatch-time parameter binding of a compiled
	// template (the deferred-binding sweep path).
	StageBind Stage = "bind"
	// StageQueueWait covers enqueue → dispatch-worker pickup in the QRM.
	StageQueueWait Stage = "queue-wait"
	// StageDispatch covers worker pickup → terminal device status: bind,
	// device submission, and the execution wait.
	StageDispatch Stage = "dispatch"
	// StageDeviceExecute covers device-side schedule construction and the
	// dynamics evolution (hardware time, minus readout post-processing).
	StageDeviceExecute Stage = "device-execute"
	// StageReadoutPost covers device-side readout post-processing:
	// measurement sampling and IQ-record synthesis.
	StageReadoutPost Stage = "readout-post"
)

// stages is the closed set of stages, in a Registry's histogram order.
var stages = [...]Stage{
	StageCompile, StageCacheHit, StageCacheMiss, StageBind,
	StageQueueWait, StageDispatch, StageDeviceExecute, StageReadoutPost,
}

// StageOf returns the stage named name: one of the closed set, without
// allocating, or else a new Stage (a peer's stage this build does not know).
func StageOf(name []byte) Stage {
	for _, s := range stages {
		if string(name) == string(s) {
			return s
		}
	}
	return Stage(name)
}

// SpanID identifies a span within its timeline; zero means "no span" and
// doubles as the root parent.
type SpanID int64

// Span is one completed lifecycle phase of a job: a stage label, the
// device (or pool) it ran against, a monotonic start, and a duration.
// Parent links child stages (cache outcome under compile, device execution
// under dispatch) to the span that contains them.
type Span struct {
	// ID is the timeline-unique span identifier.
	ID SpanID
	// Parent is the enclosing span's ID, or zero for a top-level stage.
	Parent SpanID
	// Stage is the lifecycle phase this span measures.
	Stage Stage
	// Device names the device or pool context, when one applies.
	Device string
	// Start is the span's begin time (monotonic within one process).
	Start time.Time
	// Duration is the span's measured extent.
	Duration time.Duration
	// Remote marks spans imported from the far side of the remote wire;
	// their Start carries the server's wall clock, not this process's
	// monotonic clock.
	Remote bool
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// traceCounter disambiguates trace IDs when the entropy source fails.
var traceCounter atomic.Int64

// NewTraceID mints a process-unique trace identifier (16 hex chars).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("trace-%08x", traceCounter.Add(1))
	}
	var dst [2 * len(b)]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:]) // the one allocation: the ID itself
}

// Timeline is the per-job trace: the ordered spans one submission recorded
// while crossing the stack, handed down through qrm.Request and
// qdmi.JobOptions so each layer appends its stage. It has one writer at a
// time and no lock: the submitter writes until it enqueues, the QRM worker
// (and the device, inside the job's Wait on that worker) from dequeue to
// the ticket's resolution, and the submitter reads once the job is
// terminal. Each hand-off synchronises, so spans written before it are
// visible after it; any other concurrent use is a data race. All methods
// are nil-receiver safe.
type Timeline struct {
	traceID string
	reg     *Registry
	nextID  SpanID
	spans   []Span  // backed by inline until a trace outgrows it
	inline  [8]Span // a job's trace has five to seven spans
}

// NewTimeline builds a timeline for one job. An empty traceID mints a
// fresh one. A non-nil registry receives every locally recorded span's
// duration as a "stage/<stage>" histogram observation (imported remote
// spans are excluded — the far side already counted them).
func NewTimeline(traceID string, reg *Registry) *Timeline {
	if traceID == "" {
		traceID = NewTraceID()
	}
	t := NewUntracedTimeline(reg)
	t.traceID = traceID
	return t
}

// NewUntracedTimeline builds a timeline that feeds reg as NewTimeline's
// does but carries no trace ID, for a job nobody traces: it mints none.
func NewUntracedTimeline(reg *Registry) *Timeline {
	t := &Timeline{reg: reg}
	t.spans = t.inline[:0]
	return t
}

// TraceID returns the trace identifier carried across layers and the
// remote wire; empty on a nil timeline.
func (t *Timeline) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// AttachRegistry binds the timeline to a metrics registry if it has none
// yet (later spans feed its histograms); nil-safe no-op otherwise.
func (t *Timeline) AttachRegistry(reg *Registry) {
	if t != nil && t.reg == nil {
		t.reg = reg
	}
}

// Registry returns the metrics registry the timeline feeds, if any; nil
// on a nil or unattached timeline. Devices use it to publish execution
// metrics (shot counters, per-shot latency) next to the
// stage spans of the same job.
func (t *Timeline) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Record appends a completed span and returns its ID (for use as a later
// span's parent). Negative durations are clamped to zero. On a nil
// timeline it records nothing and returns zero.
func (t *Timeline) Record(stage Stage, device string, start time.Time, d time.Duration, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	if d < 0 {
		d = 0
	}
	return t.add(Span{Parent: parent, Stage: stage, Device: device, Start: start, Duration: d})
}

// add appends s — under a fresh ID unless s already carries the one Span
// allocated for it — and feeds its duration to its stage's histogram.
func (t *Timeline) add(s Span) SpanID {
	if s.ID == 0 {
		t.nextID++
		s.ID = t.nextID
	}
	t.spans = append(t.spans, s)
	t.reg.stageHist(s.Stage).Observe(s.Duration)
	return s.ID
}

// Span runs fn inside a span of the given stage. The span's ID is allocated
// before fn starts and handed to it, so fn can record children (or import
// remote spans) under it; the span itself lands on the timeline when fn
// returns or panics, never earlier and never twice. On a nil timeline fn
// still runs, with ID zero.
func (t *Timeline) Span(stage Stage, device string, parent SpanID, fn func(id SpanID)) {
	if t == nil {
		fn(0)
		return
	}
	t.nextID++
	id := t.nextID
	start := time.Now()
	defer func() {
		t.add(Span{ID: id, Parent: parent, Stage: stage, Device: device, Start: start, Duration: time.Since(start)})
	}()
	fn(id)
}

// Import grafts spans recorded elsewhere (the far side of the remote wire)
// into this timeline under the given parent: IDs are remapped onto fresh
// local ones with the parent structure preserved, each span is marked
// Remote, and none of them feed the local registry (the recording side
// already counted them). Nil-safe.
func (t *Timeline) Import(spans []Span, under SpanID) {
	if t == nil || len(spans) == 0 {
		return
	}
	// Parents must map before children; remote IDs are allocation-ordered.
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	idMap := make(map[SpanID]SpanID, len(ordered))
	for _, s := range ordered {
		t.nextID++
		id := t.nextID
		idMap[s.ID] = id
		parent := under
		if p, ok := idMap[s.Parent]; ok && s.Parent != 0 {
			parent = p
		}
		s.ID, s.Parent, s.Remote = id, parent, true
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of the recorded spans ordered by start time (ID
// breaks ties); nil on a nil timeline.
func (t *Timeline) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
