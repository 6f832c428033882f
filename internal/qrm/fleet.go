package qrm

// Fleet management: device pools of interchangeable backends, admission
// control, and the fleet-level statistics surface.
// The placement engine itself lives in qrm.go (nextLocked, claim): devices
// pull the best-priority job from their own queue and their pools' queues,
// and steal from pool siblings when idle.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/telemetry"
)

// deviceState is the scheduler's view of one device: its targeted queue,
// whether it holds a job, and its membership in pools. Scheduler.mu guards
// all but the name, which never changes, and the atomics and queueWait, which
// are written under it or by their own protocol and read without it.
type deviceState struct {
	name      string
	queueWait histHandle // "queue_wait/device/<name>"
	heap      jobHeap    // device-targeted jobs

	// busy is set while the device runs a job, on its dispatch worker or on
	// a waiter that claimed it (Scheduler.claim).
	busy atomic.Bool

	dispatched atomic.Int64 // jobs this device actually ran
	stolen     int64        // jobs this device stole from pool siblings

	pools []*poolState // pools this device serves
	// sources lists the queues the device drains without stealing: its own
	// and, appended by RegisterPool, those of every pool it belongs to.
	sources []*jobHeap
}

// poolState is a named set of interchangeable devices sharing one queue.
// Guarded by Scheduler.mu, except queueWait, which guards itself.
type poolState struct {
	queueWait histHandle // "queue_wait/pool/<name>"
	members   []*deviceState
	heap      jobHeap // pool-targeted jobs, placed on the least-loaded member
}

// histHandle is one named histogram of whichever registry the scheduler
// records into, looked up by name once per registry rather than per job.
type histHandle struct {
	name string
	last atomic.Pointer[resolvedHist]
}

// resolvedHist is a histHandle's histogram in one registry.
type resolvedHist struct {
	reg  *telemetry.Registry
	hist *telemetry.Histogram
}

// in returns the histogram in reg — nil, which records nothing, for a nil
// registry. Callers racing on a new registry each store the same handle.
func (h *histHandle) in(reg *telemetry.Registry) *telemetry.Histogram {
	if r := h.last.Load(); r != nil && r.reg == reg {
		return r.hist
	}
	r := &resolvedHist{reg: reg, hist: reg.Hist(h.name)}
	h.last.Store(r)
	return r.hist
}

// ensureDeviceLocked returns the device's scheduler state, creating it — and
// starting its dispatch worker — on first reference. Callers hold s.mu.
func (s *Scheduler) ensureDeviceLocked(name string) *deviceState {
	d, ok := s.devices[name]
	if !ok {
		d = &deviceState{name: name, queueWait: histHandle{name: "queue_wait/device/" + name}}
		d.sources = []*jobHeap{&d.heap}
		s.devices[name] = d
		s.wg.Add(1)
		go s.worker(d)
	}
	return d
}

// RegisterPool creates a named pool of interchangeable devices. Members
// must already be registered with the QDMI driver and mutually compatible:
// identical site counts and at least one common program format, as reported
// through qdmi device-property queries — the contract that makes a payload
// compiled for one member runnable on any of them. Jobs submitted with
// Request.Pool are placed on the least-loaded member, and idle members
// steal device-targeted work from busy siblings.
//
// A device may serve several pools. Pools cannot be registered twice or
// after Close.
func (s *Scheduler) RegisterPool(name string, members ...string) error {
	if name == "" {
		return fmt.Errorf("%w: pool with empty name", qdmi.ErrInvalidArgument)
	}
	if len(members) == 0 {
		return fmt.Errorf("%w: pool %q has no members", qdmi.ErrInvalidArgument, name)
	}
	// Resolve every member and collect the compatibility inputs before
	// touching scheduler state, so a bad member leaves nothing behind.
	sites := make([]int, len(members))
	formats := make([][]qdmi.ProgramFormat, len(members))
	seen := make(map[string]bool, len(members))
	for i, m := range members {
		if seen[m] {
			return fmt.Errorf("%w: pool %q lists member %q twice", qdmi.ErrInvalidArgument, name, m)
		}
		seen[m] = true
		dev, err := s.session.Device(m)
		if err != nil {
			return fmt.Errorf("%w: pool %q member %q", ErrNoSuchTarget, name, m)
		}
		sites[i] = dev.NumSites()
		f, err := dev.QueryDeviceProperty(qdmi.DevicePropProgramFormats)
		if err != nil {
			return fmt.Errorf("qrm: pool %q member %q: program formats: %w", name, m, err)
		}
		fl, ok := f.([]qdmi.ProgramFormat)
		if !ok || len(fl) == 0 {
			return fmt.Errorf("%w: pool %q member %q reports no program formats",
				qdmi.ErrInvalidArgument, name, m)
		}
		formats[i] = fl
	}
	for i := 1; i < len(members); i++ {
		if sites[i] != sites[0] {
			return fmt.Errorf("%w: pool %q members %q (%d sites) and %q (%d sites) are not interchangeable",
				qdmi.ErrInvalidArgument, name, members[0], sites[0], members[i], sites[i])
		}
	}
	if len(commonFormats(formats)) == 0 {
		return fmt.Errorf("%w: pool %q members share no program format", qdmi.ErrInvalidArgument, name)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("qrm: scheduler closed")
	}
	if _, dup := s.pools[name]; dup {
		return fmt.Errorf("%w: duplicate pool %q", qdmi.ErrInvalidArgument, name)
	}
	p := &poolState{queueWait: histHandle{name: "queue_wait/pool/" + name}}
	for _, m := range members {
		d := s.ensureDeviceLocked(m)
		d.pools = append(d.pools, p)
		d.sources = append(d.sources, &p.heap)
		p.members = append(p.members, d)
	}
	s.pools[name] = p
	return nil
}

// commonFormats intersects the members' program-format lists.
func commonFormats(lists [][]qdmi.ProgramFormat) []qdmi.ProgramFormat {
	count := map[qdmi.ProgramFormat]int{}
	for _, l := range lists {
		seen := map[qdmi.ProgramFormat]bool{}
		for _, f := range l {
			if !seen[f] {
				seen[f] = true
				count[f]++
			}
		}
	}
	var out []qdmi.ProgramFormat
	for f, n := range count {
		if n == len(lists) {
			out = append(out, f)
		}
	}
	return out
}

// CompileTarget returns the device a program for device or pool compiles
// against: device itself, or a pool's first member in sorted order. The
// representative is deterministic, so pool jobs share lowering-cache entries
// and a pool program's calibration epoch names one device; RegisterPool's
// compatibility check is what makes the program runnable on every member. An
// unknown pool fails with ErrNoSuchTarget.
func (s *Scheduler) CompileTarget(device, pool string) (string, error) {
	if pool == "" {
		return device, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[pool]
	if !ok {
		return "", fmt.Errorf("%w: pool %q", ErrNoSuchTarget, pool)
	}
	return slices.MinFunc(p.members, func(a, b *deviceState) int { return strings.Compare(a.name, b.name) }).name, nil
}

// SetMaxQueueDepth bounds the number of queued (not yet dispatched) jobs
// per target — each device queue and each pool queue independently. A
// submission that would exceed the bound fails with ErrOverloaded so
// callers can back off. Zero (the default) disables admission control.
func (s *Scheduler) SetMaxQueueDepth(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxDepth = n
}

// DeviceStats is the per-device slice of a Stats snapshot.
type DeviceStats struct {
	// Depth is the number of queued jobs targeting this device (cancelled
	// entries count until a worker or waiter pops them).
	Depth int
	// Inflight is the number of jobs the device runs — on its worker or on
	// a waiter that claimed it: 0 or 1.
	Inflight int
	// Dispatched counts jobs this device actually ran.
	Dispatched int64
	// Stolen counts jobs this device took from busy pool siblings.
	Stolen int64
}

// PoolStats is the per-pool slice of a Stats snapshot.
type PoolStats struct {
	// Depth is the number of pool-queued jobs not yet placed on a member.
	Depth int
	// Members lists the pool's device names, sorted.
	Members []string
}

// Stats is a point-in-time snapshot of the scheduler's counters, including
// the per-device and per-pool fleet breakdown.
type Stats struct {
	// Submitted counts accepted submissions.
	Submitted int64
	// Completed counts jobs that finished with a result.
	Completed int64
	// Failed counts jobs that finished with an error.
	Failed int64
	// Cancelled counts jobs cancelled while queued or in flight.
	Cancelled int64
	// Rejected counts submissions refused by admission control
	// (ErrOverloaded).
	Rejected int64
	// Steals counts jobs an idle device took from a busy pool sibling.
	Steals int64
	// Devices breaks the fleet down per device.
	Devices map[string]DeviceStats
	// Pools breaks the fleet down per pool.
	Pools map[string]PoolStats
}

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted: s.n.submitted,
		Completed: s.n.completed.Load(),
		Failed:    s.n.failed.Load(),
		Cancelled: s.n.cancelled.Load(),
		Rejected:  s.n.rejected,
		Steals:    s.n.steals,
		Devices:   make(map[string]DeviceStats, len(s.devices)),
		Pools:     make(map[string]PoolStats, len(s.pools)),
	}
	for name, d := range s.devices {
		inflight := 0
		if d.busy.Load() {
			inflight = 1
		}
		st.Devices[name] = DeviceStats{
			Depth:      d.heap.Len(),
			Inflight:   inflight,
			Dispatched: d.dispatched.Load(),
			Stolen:     d.stolen,
		}
	}
	for name, p := range s.pools {
		members := make([]string, len(p.members))
		for i, d := range p.members {
			members[i] = d.name
		}
		sort.Strings(members)
		st.Pools[name] = PoolStats{Depth: p.heap.Len(), Members: members}
	}
	return st
}
