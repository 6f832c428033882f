package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/telemetry"
)

// This file holds the fixtures the traced run measures layers with, all
// owned by the benchmark: a query-counting device proxy, a device that
// finishes every job at once, a byte-counting TCP relay and the in-memory
// span recorder.

// countingDevice forwards to a real device and counts the QDMI queries
// made through it.
type countingDevice struct {
	qdmi.Device
	queries atomic.Int64
}

// QueryDeviceProperty implements qdmi.Device.
func (c *countingDevice) QueryDeviceProperty(p qdmi.DeviceProperty) (any, error) {
	c.queries.Add(1)
	return c.Device.QueryDeviceProperty(p)
}

// QuerySiteProperty implements qdmi.Device.
func (c *countingDevice) QuerySiteProperty(site int, p qdmi.SiteProperty) (any, error) {
	c.queries.Add(1)
	return c.Device.QuerySiteProperty(site, p)
}

// QueryOperationProperty implements qdmi.Device.
func (c *countingDevice) QueryOperationProperty(op string, sites []int, p qdmi.OperationProperty) (any, error) {
	c.queries.Add(1)
	return c.Device.QueryOperationProperty(op, sites, p)
}

// QueryPortProperty implements qdmi.Device.
func (c *countingDevice) QueryPortProperty(port string, p qdmi.PortProperty) (any, error) {
	c.queries.Add(1)
	return c.Device.QueryPortProperty(port, p)
}

// DefaultPulse implements qdmi.Device.
func (c *countingDevice) DefaultPulse(op string, sites []int) (*qdmi.PulseImpl, error) {
	c.queries.Add(1)
	return c.Device.DefaultPulse(op, sites)
}

// Ports implements qdmi.Device.
func (c *countingDevice) Ports() []*pulse.Port {
	c.queries.Add(1)
	return c.Device.Ports()
}

// Operations implements qdmi.Device.
func (c *countingDevice) Operations() []string {
	c.queries.Add(1)
	return c.Device.Operations()
}

// SubmitJobOpts forwards the qdmi.AcquisitionSubmitter capability, which
// embedding the interface would hide.
func (c *countingDevice) SubmitJobOpts(payload []byte, format qdmi.ProgramFormat, opts qdmi.JobOptions) (qdmi.Job, error) {
	as, ok := c.Device.(qdmi.AcquisitionSubmitter)
	if !ok {
		return nil, fmt.Errorf("%w: %s takes no acquisition options", qdmi.ErrNotSupported, c.Name())
	}
	return as.SubmitJobOpts(payload, format, opts)
}

// SubmitModule forwards the qdmi.ModuleSubmitter capability.
func (c *countingDevice) SubmitModule(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	ms, ok := c.Device.(qdmi.ModuleSubmitter)
	if !ok {
		return nil, fmt.Errorf("%w: %s takes no modules", qdmi.ErrNotSupported, c.Name())
	}
	return ms.SubmitModule(mod, opts)
}

// stubDevice finishes every job the moment it is submitted, so a round
// trip through the scheduler to it is the scheduler's own cost. It answers
// no property query, which makes it calibration-epoch-unaware; the embedded
// nil Device stands for the rest of the interface, which a payload
// submission never reaches.
type stubDevice struct {
	qdmi.Device
	name string
}

// Name implements qdmi.Device.
func (s stubDevice) Name() string { return s.name }

// QueryDeviceProperty implements qdmi.Device.
func (stubDevice) QueryDeviceProperty(qdmi.DeviceProperty) (any, error) {
	return nil, qdmi.ErrNotSupported
}

// SubmitJob implements qdmi.Device: the job is already done on return.
func (s stubDevice) SubmitJob(_ []byte, _ qdmi.ProgramFormat, shots int) (qdmi.Job, error) {
	job := qdmi.NewAsyncJob(s.name + "-job")
	job.Start()
	job.Finish(&qdmi.Result{Counts: map[uint64]int{0: shots}, Shots: shots})
	return job, nil
}

// relay is a loopback TCP relay that counts the bytes crossing it in each
// direction: to the server (requests) and back (responses).
type relay struct {
	ln        net.Listener
	target    string
	reqBytes  atomic.Int64
	respBytes atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

// newRelay listens on an ephemeral loopback port and forwards every
// accepted connection to target.
func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, down, up)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(up, down, &r.reqBytes)
		go r.pipe(down, up, &r.respBytes)
	}
}

// pipe copies src to dst until either side closes, counting the bytes.
func (r *relay) pipe(dst, src net.Conn, count *atomic.Int64) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			count.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			if err == io.EOF {
				dst.Close()
			}
			return
		}
	}
}

// close stops the listener, closes every relayed connection and waits for
// the copy goroutines.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// span is one recorded interval: a benchmark operation (Parent 0) or one
// stage of a job that operation ran. Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// recorder keeps spans in memory; the traced run dumps them at exit.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// recordOp records one operation as a root span and the stages of its
// jobs' timelines as descendants. The cache-hit/cache-miss markers are
// left out: they repeat the compile span's interval and would take its
// whole self time.
func (r *recorder) recordOp(name string, op int, start, end time.Time, tls []*telemetry.Timeline) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add := func(parent int, name string, start, end time.Time) int {
		id := len(r.spans) + 1
		r.spans = append(r.spans, span{
			ID: id, Parent: parent, Op: op, Name: name,
			StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)),
		})
		return id
	}
	root := add(0, name, start, end)
	for _, tl := range tls {
		// IDs first, spans second: a timeline is ordered by start time, so
		// a child may come before the span it names as its parent.
		ids := map[telemetry.SpanID]int{}
		var kept []telemetry.Span
		for _, s := range tl.Spans() {
			if s.Stage == telemetry.StageCacheHit || s.Stage == telemetry.StageCacheMiss {
				continue
			}
			kept = append(kept, s)
			ids[s.ID] = len(r.spans) + len(kept)
		}
		for _, s := range kept {
			parent, ok := ids[s.Parent]
			if !ok {
				parent = root
			}
			add(parent, string(s.Stage), s.Start, s.End())
		}
	}
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	type interval struct{ lo, hi int64 }
	children := make(map[int][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.lo, edge), min(k.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// timeIt returns the mean wall time of n calls of f, in the given unit.
func timeIt(n int, unit time.Duration, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(n) / float64(unit), nil
}

// waitJob waits for a device job and returns its result.
func waitJob(ctx context.Context, job qdmi.Job) (*qdmi.Result, error) {
	if st := job.Wait(ctx); st != qdmi.JobDone {
		if _, err := job.Result(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("benchmark: device job ended %s", st)
	}
	return job.Result()
}
