package telemetry

import (
	"sync"
	"testing"
	"time"

	"mqsspulse/internal/testutil"
)

// TestTimelineRecordAndOrder checks spans come back ordered by start time
// with parent links intact, and that stage durations feed the attached
// registry — an untraced timeline's too, which carries no trace ID.
func TestTimelineRecordAndOrder(t *testing.T) {
	reg := NewRegistry()
	tl := NewTimeline("", reg)
	if tl.TraceID() == "" {
		t.Fatal("empty trace ID not minted")
	}
	t0 := time.Now()
	compile := tl.Record(StageCompile, "sc-0", t0, 2*time.Millisecond, 0)
	tl.Record(StageCacheMiss, "sc-0", t0, 2*time.Millisecond, compile)
	tl.Record(StageQueueWait, "sc-0", t0.Add(2*time.Millisecond), time.Millisecond, 0)
	spans := tl.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatalf("spans out of order: %v before %v", spans[i], spans[i-1])
		}
	}
	if spans[1].Stage != StageCacheMiss || spans[1].Parent != compile {
		t.Fatalf("cache-miss child mis-linked: %+v", spans[1])
	}
	if got := tl.Wall(); got != 3*time.Millisecond {
		t.Fatalf("wall = %v, want 3ms", got)
	}
	snap := reg.Snapshot()
	if snap.Histograms["stage/compile"].Count != 1 {
		t.Fatalf("compile stage not observed: %+v", snap.Histograms)
	}
	untraced := NewUntracedTimeline(reg)
	untraced.Record(StageCompile, "sc-0", t0, time.Millisecond, 0)
	if untraced.TraceID() != "" || len(untraced.Spans()) != 1 {
		t.Fatalf("untraced timeline: trace ID %q, %d spans", untraced.TraceID(), len(untraced.Spans()))
	}
	if n := reg.Snapshot().Histograms["stage/compile"].Count; n != 2 {
		t.Fatalf("untraced compile span not observed: count %d, want 2", n)
	}
}

// TestTimelineNilSafe checks the nil-receiver contract instrumentation
// points rely on.
func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	if id := tl.Record(StageCompile, "", time.Now(), time.Second, 0); id != 0 {
		t.Fatalf("nil timeline recorded span %d", id)
	}
	ran := false
	tl.Span(StageDispatch, "", 0, func(id SpanID) {
		ran = true
		if id != 0 {
			t.Errorf("nil timeline handed out span ID %d", id)
		}
	})
	if !ran {
		t.Fatal("Span on a nil timeline did not run fn")
	}
	tl.Import([]Span{{ID: 1, Stage: StageBind}}, 0)
	if tl.Spans() != nil || tl.TraceID() != "" || tl.Wall() != 0 {
		t.Fatal("nil timeline leaked state")
	}
}

// TestSpanParentBeforeReturn checks the ID handed to fn is a valid parent
// for a child recorded before fn returns (the dispatch span stays open
// across the device-execute child), and that the span itself is on the
// timeline only once fn has returned.
func TestSpanParentBeforeReturn(t *testing.T) {
	tl := NewTimeline("trace-x", nil)
	tl.Span(StageDispatch, "dev", 0, func(id SpanID) {
		tl.Record(StageDeviceExecute, "dev", time.Now(), time.Millisecond, id)
		if _, open := tl.Find(StageDispatch); open {
			t.Error("dispatch span recorded before fn returned")
		}
	})
	spans := tl.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	child, _ := tl.Find(StageDeviceExecute)
	disp, _ := tl.Find(StageDispatch)
	if child.ID == 0 || disp.ID == 0 || child.ID == disp.ID || child.Parent != disp.ID {
		t.Fatalf("parent link broken: %+v", spans)
	}
}

// TestSpanRecordedOnPanic checks a panic inside fn still records the span,
// once, with the registry fed, and propagates.
func TestSpanRecordedOnPanic(t *testing.T) {
	reg := NewRegistry()
	tl := NewTimeline("", reg)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic swallowed by Span")
			}
		}()
		tl.Span(StageDispatch, "dev", 0, func(SpanID) { panic("boom") })
	}()
	if spans := tl.Spans(); len(spans) != 1 || spans[0].Stage != StageDispatch || spans[0].Device != "dev" {
		t.Fatalf("spans after panic = %+v, want one dispatch span", spans)
	}
	if n := reg.Snapshot().Histograms["stage/dispatch"].Count; n != 1 {
		t.Fatalf("stage/dispatch observed %d times, want 1", n)
	}
}

// TestTimelineOneWriterHandOff moves timelines the way jobs move them (run
// under -race in CI): the submitter records, hands the timeline to a
// worker over a channel, the worker records and closes done, and the
// submitter reads. Jobs run on several workers at once, so the registry's
// stage histograms see concurrent writers while each timeline sees one.
func TestTimelineOneWriterHandOff(t *testing.T) {
	testutil.AssertNoLeaks(t)
	reg := NewRegistry()
	type job struct {
		tl   *Timeline
		done chan struct{}
	}
	const workers, jobs = 4, 400
	queue := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j.tl.Record(StageQueueWait, "dev", time.Now(), time.Microsecond, 0)
				j.tl.Span(StageDispatch, "dev", 0, func(id SpanID) {
					j.tl.Record(StageDeviceExecute, "dev", time.Now(), time.Microsecond, id)
				})
				close(j.done)
			}
		}()
	}
	sent := make([]job, jobs)
	for i := range sent {
		tl := NewTimeline("", reg)
		tl.Record(StageCompile, "dev", time.Now(), time.Microsecond, 0)
		sent[i] = job{tl, make(chan struct{})}
		queue <- sent[i]
	}
	close(queue)
	for _, j := range sent {
		<-j.done
		if n := len(j.tl.Spans()); n != 4 {
			t.Fatalf("reader after done saw %d spans, want 4", n)
		}
	}
	wg.Wait()
	snap := reg.Snapshot()
	for _, st := range []Stage{StageCompile, StageQueueWait, StageDispatch, StageDeviceExecute} {
		if n := snap.Histograms["stage/"+string(st)].Count; n != jobs {
			t.Fatalf("stage/%s observed %d times, want %d", st, n, jobs)
		}
	}
}

// TestTimelineGrowsPastInline checks a trace longer than the inline array
// keeps every span, in order, under consecutive IDs.
func TestTimelineGrowsPastInline(t *testing.T) {
	tl := NewTimeline("", nil)
	start := time.Now()
	for i := 0; i < 3*len(Timeline{}.inline); i++ {
		tl.Record(StageBind, "dev", start.Add(time.Duration(i)), 0, 0)
	}
	spans := tl.Spans()
	if len(spans) != 3*len(Timeline{}.inline) {
		t.Fatalf("got %d spans, want %d", len(spans), 3*len(Timeline{}.inline))
	}
	for i, s := range spans {
		if s.ID != SpanID(i+1) {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
	}
}

// TestImportWire grafts another timeline's spans, as they arrive off the
// remote wire, under a local parent: IDs remap, structure survives, Remote
// is set.
func TestImportWire(t *testing.T) {
	server := NewTimeline("trace-r", nil)
	start := time.Now()
	qw := server.Record(StageQueueWait, "sc-0", start, time.Millisecond, 0)
	server.Record(StageDeviceExecute, "sc-0", start.Add(time.Millisecond), 2*time.Millisecond, qw)

	local := NewTimeline("trace-r", NewRegistry())
	local.Span(StageDispatch, "remote", 0, func(id SpanID) {
		local.Import(server.Spans(), id)
	})

	spans := local.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var wait, exec, dispatch *Span
	for i := range spans {
		switch spans[i].Stage {
		case StageQueueWait:
			wait = &spans[i]
		case StageDeviceExecute:
			exec = &spans[i]
		case StageDispatch:
			dispatch = &spans[i]
		}
	}
	if wait == nil || exec == nil || dispatch == nil {
		t.Fatalf("missing stages: %+v", spans)
	}
	if !wait.Remote || !exec.Remote || dispatch.Remote {
		t.Fatal("Remote marks wrong")
	}
	if wait.Parent != dispatch.ID {
		t.Fatalf("imported top-level span not under dispatch: parent=%d", wait.Parent)
	}
	if exec.Parent != wait.ID {
		t.Fatalf("imported child structure lost: parent=%d want %d", exec.Parent, wait.ID)
	}
	// Imported spans must not feed the local registry.
	if n := local.reg.Snapshot().Histograms["stage/queue-wait"].Count; n != 0 {
		t.Fatalf("imported span double-counted into registry (%d)", n)
	}
}

// Find returns the first recorded span with the given stage and whether
// one exists.
func (t *Timeline) Find(stage Stage) (Span, bool) {
	for _, s := range t.Spans() {
		if s.Stage == stage {
			return s, true
		}
	}
	return Span{}, false
}

// Wall returns the extent of the trace: earliest span start to latest span
// end. Zero with fewer than one recorded span (or a nil timeline).
func (t *Timeline) Wall() time.Duration {
	spans := t.Spans()
	if len(spans) == 0 {
		return 0
	}
	first := spans[0].Start
	last := spans[0].End()
	for _, s := range spans[1:] {
		if end := s.End(); end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}
