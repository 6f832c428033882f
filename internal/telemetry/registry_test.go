package telemetry

import (
	"encoding/json"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"mqsspulse/internal/testutil"
)

// TestRegistryConcurrentHammer drives counters and histograms from many
// goroutines (run under -race in CI) and checks nothing is lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	testutil.AssertNoLeaks(t)
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Add("jobs", 1)
				reg.Add(fmt.Sprintf("worker/%d", w%4), 1)
				reg.Hist("latency").Observe(time.Duration(i) * time.Microsecond)
				if i%64 == 0 {
					// Concurrent snapshots must not race the writers.
					_ = reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["jobs"]; got != workers*perWorker {
		t.Fatalf("jobs counter = %d, want %d", got, workers*perWorker)
	}
	var perWorkerSum int64
	for w := 0; w < 4; w++ {
		perWorkerSum += snap.Counters[fmt.Sprintf("worker/%d", w)]
	}
	if perWorkerSum != workers*perWorker {
		t.Fatalf("per-worker counters sum = %d, want %d", perWorkerSum, workers*perWorker)
	}
	h := snap.Histograms["latency"]
	if h.Count != workers*perWorker {
		t.Fatalf("latency count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
}

// TestHistogramQuantiles checks the log2-bucket quantile estimates: each
// estimate must bracket the true quantile from above within one bucket
// (a factor of 2) and never exceed the exact maximum.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms × 90, 10ms × 9, 100ms × 1.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.Max)
	}
	check := func(name string, got, trueQ time.Duration) {
		t.Helper()
		if got < trueQ || got > 2*trueQ {
			t.Errorf("%s = %v, want in [%v, %v]", name, got, trueQ, 2*trueQ)
		}
	}
	check("p50", s.P50, time.Millisecond)
	check("p95", s.P95, 10*time.Millisecond)
	check("p99", s.P99, 10*time.Millisecond)
	if s.P99 > s.Max {
		t.Errorf("p99 %v exceeds max %v", s.P99, s.Max)
	}
	wantMean := (90*time.Millisecond + 90*time.Millisecond + 100*time.Millisecond) / 100
	if s.Mean != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
}

// TestHistogramZeroAndNegative checks degenerate observations land in
// bucket zero instead of corrupting the index math.
func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 2 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("zero histogram snapshot = %+v", s)
	}
}

// TestRegistryNilSafe checks every method tolerates a nil receiver, the
// contract that lets uninstrumented components skip guards.
func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Hist("y").Observe(time.Second)
	if c := r.Counter("x"); c != nil {
		t.Fatal("nil registry returned a counter")
	}
	if h := r.Hist("y"); h != nil {
		t.Fatal("nil registry returned a histogram")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || snap.Histograms == nil {
		t.Fatal("nil registry snapshot has nil maps")
	}
}

// TestSnapshotJSON checks the snapshot is a serializable document (the
// remote "telemetry" op ships it verbatim).
func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Add("qrm/dispatched", 3)
	reg.Hist("queue_wait/device/sc-0").Observe(2 * time.Millisecond)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["qrm/dispatched"] != 3 {
		t.Fatalf("round-tripped counter = %d", back.Counters["qrm/dispatched"])
	}
	h, ok := back.Histograms["queue_wait/device/sc-0"]
	if !ok || h.Count != 1 {
		t.Fatalf("round-tripped histogram = %+v (ok=%v)", h, ok)
	}
}

// TestStageHistogramsAreFixed checks a span feeds its stage's fixed
// histogram, reported as "stage/<stage>"; that a stage outside the closed
// set, an untouched histogram and a counter only resolved as a handle
// stay out of the snapshot, while a counter Add ran on stays in even at
// zero, by name or by handle; and that a span's observation allocates
// nothing.
func TestStageHistogramsAreFixed(t *testing.T) {
	reg := NewRegistry()
	early := reg.Counter("resolved/early")
	reg.Hist("resolved/early")
	if snap := reg.Snapshot(); len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("fresh registry reports %+v", snap)
	}
	reg.Add("by/name", 0)
	early.Add(0)
	want := map[string]int64{"by/name": 0, "resolved/early": 0}
	if got := reg.Snapshot().Counters; !maps.Equal(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
	tl := NewTimeline("", reg)
	tl.Record(StageBind, "dev", time.Now(), time.Millisecond, 0)
	tl.Record(Stage("custom"), "dev", time.Now(), time.Millisecond, 0)
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms["stage/bind"].Count != 1 {
		t.Fatalf("histograms = %+v, want only stage/bind with one observation", snap.Histograms)
	}
	if n := testing.AllocsPerRun(100, func() {
		reg.stageHist(StageDispatch).Observe(time.Microsecond)
	}); n != 0 {
		t.Fatalf("stage observation allocates %v objects, want 0", n)
	}
}
