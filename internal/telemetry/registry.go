package telemetry

import (
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// histogramBuckets is the fixed bucket count of the log2 latency
// histogram: bucket i holds durations whose nanosecond value has bit
// length i (i.e. d ∈ [2^(i−1), 2^i) ns, with bucket 0 holding exact
// zeros), so 64 buckets cover every representable duration without any
// per-observation allocation or configuration.
const histogramBuckets = 64

// Histogram is a lock-free log2-bucketed latency histogram: Observe is a
// few atomic adds, and Snapshot derives count, mean, max, and
// p50/p95/p99 estimates from the bucket upper bounds.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histogramBuckets]atomic.Int64
}

// bucketIndex maps a duration to its log2 bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i >= histogramBuckets {
		i = histogramBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper bound of a bucket in nanoseconds.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(1)<<62 - 1
	}
	return int64(1)<<i - 1
}

// Observe records one duration (negative counts as zero); nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	h.buckets[bucketIndex(d)].Add(1)
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// HistogramBucket is one non-empty bucket of a histogram snapshot.
type HistogramBucket struct {
	// UpperNs is the bucket's inclusive upper bound in nanoseconds.
	UpperNs int64 `json:"upper_ns"`
	// Count is the number of observations that landed in the bucket.
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram. Quantiles
// are upper-bound estimates from the log2 buckets (within 2× of the true
// value), clamped to the exact observed maximum.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Mean is the exact average of all observations.
	Mean time.Duration `json:"mean_ns"`
	// P50, P95, P99 are bucket-resolution quantile estimates.
	P50 time.Duration `json:"p50_ns"`
	// P95 is the 95th-percentile estimate.
	P95 time.Duration `json:"p95_ns"`
	// P99 is the 99th-percentile estimate.
	P99 time.Duration `json:"p99_ns"`
	// Max is the exact largest observation.
	Max time.Duration `json:"max_ns"`
	// Buckets lists the non-empty log2 buckets in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot derives the aggregate view. Concurrent Observe calls may land
// between field reads; the snapshot is consistent enough for monitoring,
// not an atomic cut.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histogramBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: total, Max: time.Duration(h.maxNs.Load())}
	if total == 0 {
		return snap
	}
	snap.Mean = time.Duration(h.sumNs.Load() / total)
	quantile := func(q float64) time.Duration {
		target := int64(q*float64(total) + 0.5)
		if target < 1 {
			target = 1
		}
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= target {
				est := time.Duration(bucketUpper(i))
				if est > snap.Max {
					est = snap.Max
				}
				return est
			}
		}
		return snap.Max
	}
	snap.P50, snap.P95, snap.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	for i, c := range counts {
		if c > 0 {
			snap.Buckets = append(snap.Buckets, HistogramBucket{UpperNs: bucketUpper(i), Count: c})
		}
	}
	return snap
}

// Registry is the fleet-wide metrics surface: one latency histogram per
// Stage, which timelines feed through a fixed handle, plus named atomic
// counters and histograms created on first use. The name maps are
// copy-on-write: a lookup is an atomic load and a map read, and only
// creating a name takes the lock. All methods are nil-receiver safe, so
// uninstrumented components may hold a nil *Registry.
type Registry struct {
	stages   [len(stages)]Histogram // stages[i] times stages[i]'s spans
	mu       sync.Mutex             // serialises creating a name
	counters atomic.Pointer[map[string]*Counter]
	hists    atomic.Pointer[map[string]*Histogram]
}

// Counter is a named counter. Snapshot lists it once Add has run on it,
// even by zero, so a handle resolved ahead of use stays out of the view
// until used. Add on a nil *Counter (a nil registry's) does nothing.
type Counter struct {
	n    atomic.Int64
	used atomic.Bool
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.used.Store(true)
		c.n.Add(delta)
	}
}

// Load returns the counter's value.
func (c *Counter) Load() int64 { return c.n.Load() }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.counters.Store(&map[string]*Counter{})
	r.hists.Store(&map[string]*Histogram{})
	return r
}

// stageHist returns the histogram for stage, or nil on a nil registry or a
// stage outside the closed set.
func (r *Registry) stageHist(stage Stage) *Histogram {
	if i := slices.Index(stages[:], stage); r != nil && i >= 0 {
		return &r.stages[i]
	}
	return nil
}

// named returns the metric called name in *m, creating it — by publishing
// a copy of the map that holds it — on first use.
func named[T any](mu *sync.Mutex, m *atomic.Pointer[map[string]*T], name string) *T {
	if v := (*m.Load())[name]; v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v := (*m.Load())[name]; v != nil {
		return v
	}
	next := maps.Clone(*m.Load())
	v := new(T)
	next[name] = v
	m.Store(&next)
	return v
}

// Counter returns the named counter, creating it on first use; nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return named(&r.mu, &r.counters, name)
}

// Add increments the named counter by delta; nil-safe no-op.
func (r *Registry) Add(name string, delta int64) {
	r.Counter(name).Add(delta)
}

// Hist returns the named histogram, creating it on first use; nil on a
// nil registry.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	return named(&r.mu, &r.hists, name)
}

// Snapshot is the JSON-serializable point-in-time view of a registry:
// the expvar-style document the remote "telemetry" op and the
// qdmi-query -telemetry table render from.
type Snapshot struct {
	// Counters maps counter names to their current values.
	Counters map[string]int64 `json:"counters"`
	// Histograms maps histogram names to their aggregate views.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every counter Add has run on (see Counter) and every
// histogram that has recorded something, the stage histograms as
// "stage/<stage>". Empty (not nil) maps on a nil or unused registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	if r == nil {
		return snap
	}
	for name, c := range *r.counters.Load() {
		if c.used.Load() {
			snap.Counters[name] = c.Load()
		}
	}
	add := func(name string, h *Histogram) {
		if hs := h.Snapshot(); hs.Count != 0 {
			snap.Histograms[name] = hs
		}
	}
	for name, h := range *r.hists.Load() {
		add(name, h)
	}
	for i, s := range stages {
		add("stage/"+string(s), &r.stages[i])
	}
	return snap
}
