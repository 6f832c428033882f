package qrm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/telemetry"
)

func poolSubmit(t *testing.T, s *Scheduler, ctx context.Context, pool, payload string) *Ticket {
	t.Helper()
	tk, err := s.SubmitCtx(ctx, Request{
		Pool: pool, Payload: []byte(payload), Format: qdmi.FormatQIRBase, Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestSubmitUnknownTargetsAreTyped(t *testing.T) {
	s := rig(t, device("a"))
	if _, err := s.SubmitCtx(context.Background(), Request{
		Device: "ghost", Payload: []byte("x"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("unknown device: err = %v, want ErrNoSuchTarget", err)
	}
	if _, err := s.SubmitCtx(context.Background(), Request{
		Pool: "ghost-pool", Payload: []byte("x"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("unknown pool: err = %v, want ErrNoSuchTarget", err)
	}
	// Exactly one of Device and Pool must be set.
	if _, err := s.SubmitCtx(context.Background(), Request{
		Payload: []byte("x"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("no target: err = %v, want ErrInvalidArgument", err)
	}
	if _, err := s.SubmitCtx(context.Background(), Request{
		Device: "a", Pool: "p", Payload: []byte("x"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("two targets: err = %v, want ErrInvalidArgument", err)
	}
}

func TestRegisterPoolValidation(t *testing.T) {
	odd := device("odd")
	odd.Props = map[qdmi.DeviceProperty]any{qdmi.DevicePropProgramFormats: []qdmi.ProgramFormat{"mlir-pulse"}}
	s := rig(t, device("a"), device("b"), qdmitest.New("small", 1), odd)

	if err := s.RegisterPool(""); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("empty name: %v", err)
	}
	if err := s.RegisterPool("empty"); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("no members: %v", err)
	}
	if err := s.RegisterPool("p", "a", "ghost"); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("unknown member: %v", err)
	}
	if err := s.RegisterPool("p", "a", "small"); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("site-count mismatch accepted: %v", err)
	}
	if err := s.RegisterPool("p", "a", "odd"); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("format mismatch accepted: %v", err)
	}
	if err := s.RegisterPool("p", "a", "a"); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("duplicate member accepted: %v", err)
	}
	// Failed registrations must leave no trace: no device may be linked to
	// a pool that was never created (a phantom link would make devices
	// steal siblings of a nonexistent pool).
	s.mu.Lock()
	for name, d := range s.devices {
		if len(d.pools) != 0 {
			s.mu.Unlock()
			t.Fatalf("failed registration left device %q linked to %d pool(s)", name, len(d.pools))
		}
	}
	s.mu.Unlock()
	if err := s.RegisterPool("p", "a", "b"); err != nil {
		t.Fatalf("valid pool rejected: %v", err)
	}
	if err := s.RegisterPool("p", "a"); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("duplicate pool accepted: %v", err)
	}
	if members := s.Stats().Pools["p"].Members; len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("members = %v", members)
	}
	// A pool program compiles against the first member in sorted order; a
	// device program against its device.
	for _, tc := range []struct{ device, pool, want string }{{"b", "", "b"}, {"b", "p", "a"}, {"", "p", "a"}} {
		if got, err := s.CompileTarget(tc.device, tc.pool); got != tc.want || err != nil {
			t.Errorf("CompileTarget(%q, %q) = %q, %v; want %q", tc.device, tc.pool, got, err, tc.want)
		}
	}
	if _, err := s.CompileTarget("", "ghost"); !errors.Is(err, ErrNoSuchTarget) {
		t.Fatalf("unknown pool compile target: %v", err)
	}
}

func TestPoolPlacementCompletesAcrossMembers(t *testing.T) {
	devs := []*qdmitest.Device{device("d0"), device("d1"), device("d2"), device("d3")}
	s := rig(t, devs[0], devs[1], devs[2], devs[3])
	if err := s.RegisterPool("sims", "d0", "d1", "d2", "d3"); err != nil {
		t.Fatal(err)
	}
	const n = 32
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = poolSubmit(t, s, context.Background(), "sims", fmt.Sprintf("job-%02d", i))
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if tk.Device() == "" {
			t.Fatalf("job %d has no placement device", i)
		}
	}
	total := 0
	for _, d := range devs {
		total += len(ids(d))
	}
	if total != n {
		t.Fatalf("fleet ran %d jobs, want %d", total, n)
	}
	st := s.Stats()
	if st.Completed != n || len(st.Pools["sims"].Members) != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorkStealingIdleSiblingTakesQueuedJob(t *testing.T) {
	busy := device("busy")
	idle := device("idle")
	s := rig(t, busy, idle)
	release := hold(t, busy)
	if err := s.RegisterPool("pair", "busy", "idle"); err != nil {
		t.Fatal(err)
	}

	// Occupy busy's one worker...
	first, err := s.SubmitCtx(context.Background(), Request{
		Device: "busy", Payload: []byte("first"), Format: qdmi.FormatQIRBase, Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)

	// ...then submit more device-targeted work to it. The idle sibling must
	// steal and complete it while busy is still blocked.
	second, err := s.SubmitCtx(context.Background(), Request{
		Device: "busy", Payload: []byte("second"), Format: qdmi.FormatQIRBase, Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := second.Wait(ctx); err != nil {
		t.Fatalf("stolen job did not complete: %v", err)
	}
	if second.Device() != "idle" {
		t.Fatalf("second ran on %q, want idle", second.Device())
	}
	if got := ids(idle); len(got) != 1 || got[0] != "second" {
		t.Fatalf("idle executed %v, want [second]", got)
	}
	st := s.Stats()
	if st.Steals != 1 || st.Devices["idle"].Stolen != 1 {
		t.Fatalf("steal stats = %+v", st)
	}

	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedQueueRejectsWithErrOverloaded(t *testing.T) {
	dev := device("qpu")
	s := rig(t, dev)
	release := hold(t, dev)
	s.SetMaxQueueDepth(2)

	submitOne := func(payload string) (*Ticket, error) {
		return s.SubmitCtx(context.Background(), Request{
			Device: "qpu", Payload: []byte(payload), Format: qdmi.FormatQIRBase, Shots: 1,
		})
	}
	first, err := submitOne("first")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first) // dispatched: not counted against queue depth
	var queued []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := submitOne(fmt.Sprintf("queued-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	if _, err := submitOne("overflow"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Devices["qpu"].Depth != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// Back off and retry once capacity frees up: the canonical caller loop.
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tk, err := submitOne("retry")
		if err == nil {
			queued = append(queued, tk)
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("retry never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	for _, tk := range queued {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolQueueRejectsWithErrOverloaded(t *testing.T) {
	dev := device("solo")
	s := rig(t, dev)
	hold(t, dev)
	if err := s.RegisterPool("p", "solo"); err != nil {
		t.Fatal(err)
	}
	s.SetMaxQueueDepth(1)
	first := poolSubmit(t, s, context.Background(), "p", "first")
	waitRunning(t, first)
	poolSubmit(t, s, context.Background(), "p", "second") // fills the pool queue
	if _, err := s.SubmitCtx(context.Background(), Request{
		Pool: "p", Payload: []byte("overflow"), Format: qdmi.FormatQIRBase, Shots: 1,
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
}

func TestCancelPoolQueuedTicketBeforePlacement(t *testing.T) {
	dev := device("solo")
	s := rig(t, dev)
	release := hold(t, dev)
	if err := s.RegisterPool("p", "solo"); err != nil {
		t.Fatal(err)
	}
	first := poolSubmit(t, s, context.Background(), "p", "first")
	waitRunning(t, first)

	ctx, cancel := context.WithCancel(context.Background())
	second := poolSubmit(t, s, ctx, "p", "second")
	cancel()
	res, err := second.Wait(context.Background())
	if res != nil || !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled pool ticket: res=%v err=%v", res, err)
	}
	if second.Device() != "" {
		t.Fatalf("cancelled ticket was placed on %q", second.Device())
	}

	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The device only ever saw the first payload.
	if got := ids(dev); len(got) != 1 || got[0] != "first" {
		t.Fatalf("device executed %v, want [first]", got)
	}
}

func TestPriorityOrderAcrossPoolAndDeviceQueues(t *testing.T) {
	dev := device("solo")
	s := rig(t, dev)
	release := hold(t, dev)
	if err := s.RegisterPool("p", "solo"); err != nil {
		t.Fatal(err)
	}
	first, err := s.SubmitCtx(context.Background(), Request{
		Device: "solo", Payload: []byte("first"), Format: qdmi.FormatQIRBase, Shots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, first)
	// Queue a low-priority device job, then a high-priority pool job: the
	// worker must take the pool job first even though the device queue is
	// its "own".
	low, err := s.SubmitCtx(context.Background(), Request{
		Device: "solo", Payload: []byte("low"), Format: qdmi.FormatQIRBase, Shots: 1, Priority: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.SubmitCtx(context.Background(), Request{
		Pool: "p", Payload: []byte("high"), Format: qdmi.FormatQIRBase, Shots: 1, Priority: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, tk := range []*Ticket{first, low, high} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	order := ids(dev)
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("execution order = %v, want [first high low]", order)
	}
}

// TestQueueWaitHistogramsPerRegistry: every job leaving a queue observes
// its wait into "queue_wait/device/<device>" and, for a pool job,
// "queue_wait/pool/<pool>" of the registry installed at that moment — the
// names and counts the scheduler recorded when it looked the histograms up
// by name per job — and a registry installed later gets the later jobs
// under the same names.
func TestQueueWaitHistogramsPerRegistry(t *testing.T) {
	s := rig(t, device("d0"), device("d1"))
	if err := s.RegisterPool("sims", "d0", "d1"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(reg *telemetry.Registry, poolJobs, deviceJobs int) {
		t.Helper()
		s.SetTelemetry(reg)
		var tks []*Ticket
		for i := range poolJobs {
			tks = append(tks, poolSubmit(t, s, ctx, "sims", fmt.Sprint("pool-", i)))
		}
		for i := range deviceJobs {
			tk, err := s.SubmitCtx(ctx, Request{Device: "d0", Payload: []byte(fmt.Sprint("dev-", i)), Format: qdmi.FormatQIRBase, Shots: 1})
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			if _, err := tk.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(reg *telemetry.Registry, poolJobs, deviceJobs int) {
		t.Helper()
		var pool, devs int64
		for name, h := range reg.Snapshot().Histograms {
			switch {
			case name == "queue_wait/pool/sims":
				pool = h.Count
			case name == "queue_wait/device/d0" || name == "queue_wait/device/d1":
				devs += h.Count
			case strings.HasPrefix(name, "queue_wait/"):
				t.Fatalf("unexpected histogram %q", name)
			}
		}
		if pool != int64(poolJobs) || devs != int64(poolJobs+deviceJobs) {
			t.Fatalf("queue-wait counts: pool %d, devices %d; want %d and %d", pool, devs, poolJobs, poolJobs+deviceJobs)
		}
	}
	first, second := telemetry.NewRegistry(), telemetry.NewRegistry()
	run(first, 6, 3)
	run(nil, 2, 2) // no registry records nothing
	run(second, 2, 1)
	check(first, 6, 3)
	check(second, 2, 1)
}
