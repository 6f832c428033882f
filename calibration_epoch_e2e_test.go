package mqsspulse_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/testutil"
)

// TestStaleCalibrationRecompile is the end-to-end reproducer for the
// stale-lowering-cache bug: compile and run a kernel, recalibrate the
// device, run again. Before calibration epochs the second run replayed the
// envelope baked at the old calibration (an X pulse at the old π
// amplitude, P(1) ≈ 1 despite the halved table entry); with epochs the
// cache invalidates and the recompiled payload reflects the new amplitude
// (≈ π/2 rotation, P(1) ≈ 0.5). An unchanged device must keep hitting the
// cache.
func TestStaleCalibrationRecompile(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("epoch-sc", 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)

	k := mqsspulse.NewCircuit("epoch-probe", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() float64 {
		t.Helper()
		res, err := stack.Client.RunCtx(ctx, k, "epoch-sc", mqsspulse.SubmitOptions{Shots: 800})
		if err != nil {
			t.Fatal(err)
		}
		return res.Probability(1)
	}

	if p := run(); p < 0.9 {
		t.Fatalf("freshly calibrated X pulse: P(1) = %g", p)
	}
	// Unchanged calibration: the second submission must hit the cache.
	if p := run(); p < 0.9 {
		t.Fatalf("cached X pulse: P(1) = %g", p)
	}
	if hits := stack.Client.CacheStats().Hits; hits < 1 {
		t.Fatalf("unchanged device missed the cache: hits = %d", hits)
	}

	epochBefore, err := mqsspulse.CalibrationEpoch(dev)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)/2)
	if epochAfter, _ := mqsspulse.CalibrationEpoch(dev); epochAfter != epochBefore+1 {
		t.Fatalf("recalibration did not bump the epoch: %d → %d", epochBefore, epochAfter)
	}

	// The next run must recompile against the new calibration: the halved
	// believed π amplitude now rotates by ≈ π/2. A stale cached payload
	// would keep P(1) ≈ 1.
	if p := run(); p < 0.2 || p > 0.8 {
		t.Fatalf("run after recalibration replayed a stale envelope: P(1) = %g", p)
	}
	st := stack.Client.CacheStats()
	if st.Invalidations < 1 {
		t.Fatalf("recalibration did not invalidate the cached lowering: %+v", st)
	}
}

// steppedDevice is the e2e's view of what the QRM hands the device: it
// records every job's kernel name and timeline in dispatch order, and makes
// each user job (any kernel but calibration's "ramsey") wait for a token
// from step, so the test decides when a user job may leave the device.
type steppedDevice struct {
	*mqsspulse.SimDevice
	step chan struct{}

	mu        sync.Mutex
	order     []string
	timelines []*mqsspulse.Timeline
}

func (d *steppedDevice) SubmitModule(mod *mqsspulse.QIRModule, opts qdmi.JobOptions) (mqsspulse.Job, error) {
	d.mu.Lock()
	d.order = append(d.order, mod.ID)
	d.timelines = append(d.timelines, opts.Telemetry)
	d.mu.Unlock()
	if mod.ID != "ramsey" {
		<-d.step
	}
	return d.SimDevice.SubmitModule(mod, opts)
}

// TestCalibrationTickInterleavesAsTickets is the hook's replacement seen end
// to end: a due calibration, run through the client while user jobs are
// queued, overtakes them as prioritised tickets traced like any job — and
// the staleness gate has no exception: a user job compiled before the
// recalibration and dispatched after it fails, and succeeds resubmitted.
func TestCalibrationTickInterleavesAsTickets(t *testing.T) {
	testutil.AssertNoLeaks(t)
	sim, err := mqsspulse.NewSuperconductingDevice("tick-sc", 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	dev := &steppedDevice{SimDevice: sim, step: make(chan struct{}, 2)}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	ctx := context.Background()
	await := func(what string, reached func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !reached(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	submitted := func(n int64) {
		t.Helper()
		await("submissions", func() bool { return stack.Client.QRM().Stats().Submitted >= n })
	}

	const points = 16 // RamseyCalibrate's default sweep length, twice per routine
	policy := mqsspulse.CalibrationPolicy{RamseyEverySeconds: 600, ProbeHz: 1e6, Shots: 300}
	sched := mqsspulse.NewCalibrationScheduler(stack.Client, sim, policy)
	sim.AdvanceTime(700)

	// Four user jobs compiled at the current epoch: the first reaches the
	// device and waits there, the rest queue behind it.
	k := mqsspulse.NewCircuit("user", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	var users []*mqsspulse.Ticket
	for range 4 {
		tk, err := stack.Client.SubmitCtx(ctx, k, "tick-sc", mqsspulse.SubmitOptions{Shots: 100})
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, tk)
		if len(users) == 1 {
			await("the first user job to reach the device", func() bool {
				dev.mu.Lock()
				defer dev.mu.Unlock()
				return len(dev.order) == 1
			})
		}
	}
	tickDone := make(chan error, 1)
	go func() {
		_, err := sched.Tick(ctx)
		tickDone <- err
	}()
	// Let one user job go once each fringe sweep is queued, so calibration is
	// never waiting on a job only the test can release; any user job that
	// reaches the device after that stays there until the routine has
	// written back.
	submitted(4 + points)
	dev.step <- struct{}{}
	submitted(4 + 2*points)
	dev.step <- struct{}{}
	if err := <-tickDone; err != nil {
		t.Fatal(err)
	}
	close(dev.step)

	if _, err := users[0].Wait(ctx); err != nil {
		t.Fatalf("user job dispatched before the calibration: %v", err)
	}
	for i, tk := range users[1:] {
		if _, err := tk.Wait(ctx); err != nil && !errors.Is(err, mqsspulse.ErrStaleCalibration) {
			t.Fatalf("queued user job %d: %v", i+1, err)
		}
	}
	// The last one left the queue after the writeback, whatever the others did.
	if _, err := users[3].Wait(ctx); !errors.Is(err, mqsspulse.ErrStaleCalibration) {
		t.Fatalf("job compiled before the recalibration and dispatched after it: err = %v, want ErrStaleCalibration", err)
	}
	if _, err := stack.Client.RunCtx(ctx, k, "tick-sc", mqsspulse.SubmitOptions{Shots: 100}); err != nil {
		t.Fatalf("resubmission after the recalibration: %v", err)
	}

	// Queued behind three user jobs, the first sweep's tickets all ran first.
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if len(dev.order) < 1+points || dev.order[0] != "user" {
		t.Fatalf("dispatch order %v", dev.order)
	}
	for i := 1; i <= points; i++ {
		if dev.order[i] != "ramsey" {
			t.Fatalf("calibration did not outrank queued user work: dispatch order %v", dev.order)
		}
	}
	calibrated := 0
	for i, name := range dev.order {
		if name != "ramsey" {
			continue
		}
		calibrated++
		requireStages(t, dev.timelines[i],
			mqsspulse.StageCompile, mqsspulse.StageQueueWait, mqsspulse.StageBind,
			mqsspulse.StageDispatch, mqsspulse.StageDeviceExecute, mqsspulse.StageReadoutPost)
	}
	if calibrated != 2*points || len(sched.Events) != 1 {
		t.Fatalf("%d calibration jobs and %d events, want %d and 1", calibrated, len(sched.Events), 2*points)
	}
}
