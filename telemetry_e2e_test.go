package mqsspulse_test

import (
	"context"
	"sync"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/devices"
)

// findSpan returns the first recorded span of the given stage.
func findSpan(tl *mqsspulse.Timeline, stage mqsspulse.Stage) (mqsspulse.Span, bool) {
	for _, s := range tl.Spans() {
		if s.Stage == stage {
			return s, true
		}
	}
	return mqsspulse.Span{}, false
}

// requireStages fails unless the timeline contains every named stage, and
// returns the first span found for each.
func requireStages(t *testing.T, tl *mqsspulse.Timeline, stages ...mqsspulse.Stage) map[mqsspulse.Stage]mqsspulse.Span {
	t.Helper()
	if tl == nil {
		t.Fatal("handle returned a nil timeline")
	}
	found := make(map[mqsspulse.Stage]mqsspulse.Span, len(stages))
	for _, st := range stages {
		sp, ok := findSpan(tl, st)
		if !ok {
			t.Fatalf("timeline missing %q span; have %v", st, stageNames(tl))
		}
		found[st] = sp
	}
	return found
}

func stageNames(tl *mqsspulse.Timeline) []mqsspulse.Stage {
	var names []mqsspulse.Stage
	for _, s := range tl.Spans() {
		names = append(names, s.Stage)
	}
	return names
}

// checkTimelineInvariants asserts the structural properties every traced
// job must satisfy: no negative durations, top-level local spans strictly
// ordered by start, and the sum of top-level durations bounded by the
// trace's wall-clock extent (top-level stages are sequential, so overlap
// would mean a bookkeeping bug).
func checkTimelineInvariants(t *testing.T, tl *mqsspulse.Timeline) {
	t.Helper()
	spans := tl.Spans()
	if len(spans) == 0 {
		t.Fatal("timeline recorded no spans")
	}
	var topSum time.Duration
	var prevStart time.Time
	for _, s := range spans {
		if s.Duration < 0 {
			t.Fatalf("%s span has negative duration %v", s.Stage, s.Duration)
		}
		if s.Parent != 0 || s.Remote {
			continue
		}
		if !prevStart.IsZero() && s.Start.Before(prevStart) {
			t.Fatalf("top-level %s span starts before its predecessor", s.Stage)
		}
		prevStart = s.Start
		topSum += s.Duration
	}
	// The trace's wall time: its first span's start to its latest end.
	first, last := tl.Spans()[0].Start, time.Time{}
	for _, s := range tl.Spans() {
		if s.End().After(last) {
			last = s.End()
		}
	}
	if wall := last.Sub(first); topSum > wall {
		t.Fatalf("top-level stage durations sum to %v, exceeding trace wall time %v", topSum, wall)
	}
}

// TestTelemetryLocalLifecycle traces one job down the native path and
// checks the assembled trace: compile, queue-wait, dispatch, and
// device-execute all present, the caller's trace ID carried through, the
// cache outcome nested under compile, and device execution nested under
// dispatch.
func TestTelemetryLocalLifecycle(t *testing.T) {
	dev, err := devices.New(tinyFleetConfig("tele-local", 11))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()

	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "tele-local"}
	h, err := mqsspulse.Start(context.Background(), backend, fleetKernel(t),
		mqsspulse.WithShots(32), mqsspulse.WithTraceID("trace-local-1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	tl := h.Timeline()
	if got := tl.TraceID(); got != "trace-local-1" {
		t.Fatalf("trace ID %q did not survive the stack (want trace-local-1)", got)
	}
	spans := requireStages(t, tl,
		mqsspulse.StageCompile, mqsspulse.StageQueueWait,
		mqsspulse.StageDispatch, mqsspulse.StageDeviceExecute, mqsspulse.StageReadoutPost)
	checkTimelineInvariants(t, tl)

	if spans[mqsspulse.StageQueueWait].Duration < 0 {
		t.Fatalf("negative queue wait %v", spans[mqsspulse.StageQueueWait].Duration)
	}
	if spans[mqsspulse.StageQueueWait].Device != "tele-local" {
		t.Fatalf("queue-wait attributed to %q, want tele-local", spans[mqsspulse.StageQueueWait].Device)
	}
	if got := spans[mqsspulse.StageDeviceExecute].Parent; got != spans[mqsspulse.StageDispatch].ID {
		t.Fatalf("device-execute parent %d, want dispatch span %d", got, spans[mqsspulse.StageDispatch].ID)
	}
	// First compile for this kernel/device: the outcome child must be a miss.
	miss, ok := findSpan(tl, mqsspulse.StageCacheMiss)
	if !ok {
		t.Fatal("first compile recorded no cache-miss child")
	}
	if miss.Parent != spans[mqsspulse.StageCompile].ID {
		t.Fatalf("cache-miss parent %d, want compile span %d", miss.Parent, spans[mqsspulse.StageCompile].ID)
	}

	// Second run of the same kernel must trace a cache hit instead.
	h2, err := mqsspulse.Start(context.Background(), backend, fleetKernel(t), mqsspulse.WithShots(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := findSpan(h2.Timeline(), mqsspulse.StageCacheHit); !ok {
		t.Fatal("warm compile recorded no cache-hit span")
	}
}

// TestTelemetryPoolPath traces a pool-targeted job and checks the fleet
// metrics surface: the handle's timeline satisfies the same invariants as
// the direct path, and the registry accumulates per-pool and per-device
// queue-wait histograms plus consistent scheduler counters.
func TestTelemetryPoolPath(t *testing.T) {
	const jobs = 24
	stack := fleetTestStack(t, 3, time.Millisecond)

	h, err := mqsspulse.Start(context.Background(),
		&mqsspulse.NativeAdapter{Client: stack.Client},
		fleetKernel(t), mqsspulse.WithShots(4), mqsspulse.WithPool("fleet"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireStages(t, h.Timeline(),
		mqsspulse.StageCompile, mqsspulse.StageQueueWait,
		mqsspulse.StageDispatch, mqsspulse.StageDeviceExecute)
	checkTimelineInvariants(t, h.Timeline())

	runPoolBatch(t, stack, "fleet", jobs)

	snap := stack.Telemetry()
	const total = jobs + 1 // batch plus the single traced probe
	pool, ok := snap.Histograms["queue_wait/pool/fleet"]
	if !ok {
		t.Fatal("no queue_wait/pool/fleet histogram after a pool batch")
	}
	if pool.Count != total {
		t.Fatalf("pool queue-wait histogram counted %d waits, want %d", pool.Count, total)
	}
	var perDevice int64
	for name, h := range snap.Histograms {
		if len(name) > 18 && name[:18] == "queue_wait/device/" {
			perDevice += h.Count
		}
	}
	if perDevice != total {
		t.Fatalf("per-device queue-wait histograms counted %d waits, want %d", perDevice, total)
	}
	if got := snap.Counters["qrm/submitted"]; got != total {
		t.Fatalf("qrm/submitted = %d, want %d", got, total)
	}
	if got := snap.Counters["qrm/completed"]; got != total {
		t.Fatalf("qrm/completed = %d, want %d", got, total)
	}
	if snap.Counters["qrm/failed"] != 0 || snap.Counters["qrm/cancelled"] != 0 {
		t.Fatalf("unexpected failures in counters: %v", snap.Counters)
	}
	if hits := snap.Counters["client/cache_hits"]; hits != total-1 {
		t.Fatalf("client/cache_hits = %d, want %d (every job after the first)", hits, total-1)
	}
}

// TestTelemetryRemoteWire checks trace context crosses the TCP wire: the
// client-side timeline ends up holding its local compile and dispatch
// spans plus the server-side queue-wait, dispatch, and device-execute
// spans, imported under the wire dispatch span and marked Remote.
func TestTelemetryRemoteWire(t *testing.T) {
	dev, err := devices.New(tinyFleetConfig("tele-remote", 13))
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := mqsspulse.NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	tl := stack.Client.NewTimeline("trace-remote-1")
	payload, format, _, err := stack.Client.CompileTraced(fleetKernel(t), dev.Name(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.SubmitPayloadCtx(context.Background(), dev.Name(), payload, format,
		mqsspulse.SubmitOptions{Shots: 16, Timeline: tl}); err != nil {
		t.Fatal(err)
	}

	spans := requireStages(t, tl,
		mqsspulse.StageCompile, mqsspulse.StageQueueWait,
		mqsspulse.StageDispatch, mqsspulse.StageDeviceExecute)
	if spans[mqsspulse.StageCompile].Remote {
		t.Fatal("compile span marked Remote; it was recorded locally")
	}
	for _, st := range []mqsspulse.Stage{mqsspulse.StageQueueWait, mqsspulse.StageDeviceExecute} {
		if !spans[st].Remote {
			t.Fatalf("%s span not marked Remote; server-side spans did not cross the wire", st)
		}
		if spans[st].Parent == 0 {
			t.Fatalf("imported %s span lost its parent link", st)
		}
	}
	// The first dispatch span by start time is the client-side wire span;
	// a Remote server-side dispatch span must also be present.
	var localDispatch, remoteDispatch bool
	for _, s := range tl.Spans() {
		if s.Stage != mqsspulse.StageDispatch {
			continue
		}
		if s.Remote {
			remoteDispatch = true
		} else {
			localDispatch = true
		}
	}
	if !localDispatch || !remoteDispatch {
		t.Fatalf("want both local and Remote dispatch spans, got local=%v remote=%v",
			localDispatch, remoteDispatch)
	}
}

// TestTelemetryConcurrentJobs hammers one registry from many concurrent
// jobs and snapshot readers — the -race check that the metrics surface
// tolerates the scheduler's parallelism — then verifies the counters
// reconcile exactly.
func TestTelemetryConcurrentJobs(t *testing.T) {
	const (
		workers = 8
		each    = 6
	)
	stack := fleetTestStack(t, 3, 0)
	k := fleetKernel(t)

	var jobWg, readerWg sync.WaitGroup
	errs := make(chan error, workers)
	stop := make(chan struct{})
	// Concurrent snapshot readers race against the recording jobs.
	for i := 0; i < 2; i++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = stack.Telemetry()
				}
			}
		}()
	}
	var mu sync.Mutex
	var timelines []*mqsspulse.Timeline
	for w := 0; w < workers; w++ {
		jobWg.Add(1)
		go func() {
			defer jobWg.Done()
			backend := &mqsspulse.NativeAdapter{Client: stack.Client}
			for i := 0; i < each; i++ {
				h, err := mqsspulse.Start(context.Background(), backend, k,
					mqsspulse.WithShots(4), mqsspulse.WithPool("fleet"))
				if err != nil {
					errs <- err
					return
				}
				if _, err := h.Wait(context.Background()); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				timelines = append(timelines, h.Timeline())
				mu.Unlock()
			}
		}()
	}
	jobWg.Wait()
	close(stop)
	readerWg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, tl := range timelines {
		checkTimelineInvariants(t, tl)
	}

	snap := stack.Telemetry()
	const total = workers * each
	if got := snap.Counters["qrm/submitted"]; got != total {
		t.Fatalf("qrm/submitted = %d, want %d", got, total)
	}
	if got := snap.Counters["qrm/completed"]; got != total {
		t.Fatalf("qrm/completed = %d, want %d", got, total)
	}
	if got := snap.Histograms["stage/queue-wait"].Count; got != total {
		t.Fatalf("stage/queue-wait histogram counted %d, want %d", got, total)
	}
	if got := snap.Counters["client/cache_hits"] + snap.Counters["client/cache_misses"]; got != total {
		t.Fatalf("cache hits+misses = %d, want %d", got, total)
	}
}
