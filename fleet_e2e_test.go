package mqsspulse_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/testutil"
)

// tinyFleetConfig is a minimal single-qubit simulator (dim 2, short
// pulses, no couplers): its per-job simulation cost is microseconds, so a
// configured electronics overhead dominates the service time and wall
// clock measures scheduler placement, not Lindblad integration.
func tinyFleetConfig(name string, seed int64) devices.Config {
	return devices.Config{
		Name: name, Technology: "simulator", Version: "tiny-1.0",
		SampleRateHz: 1e9, Granularity: 1, MinSamples: 1, MaxSamples: 1 << 12,
		DriveRabiHz: 250e6, GateSamples: 8, ReadoutSamples: 8,
		ReadoutFidelity: 0.99, Seed: seed, MaxShots: 1 << 12,
		Sites: []devices.SiteConfig{{Dim: 2, FreqHz: 5e9, T1Seconds: 1e-3, T2Seconds: 1e-3}},
	}
}

// fleetTestStack builds n identical single-qubit simulators
// (fleet-0..fleet-(n-1)) with a fixed per-job electronics overhead,
// registered as pool "fleet" with the first device also alone in pool
// "solo" — the 1-vs-n placement comparison rig.
func fleetTestStack(t *testing.T, n int, overhead time.Duration) *mqsspulse.Stack {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	devs := make([]mqsspulse.Device, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		dev, err := devices.New(tinyFleetConfig(fmt.Sprintf("fleet-%d", i), int64(7+i)))
		if err != nil {
			t.Fatal(err)
		}
		dev.SetJobOverhead(overhead)
		devs[i], names[i] = dev, dev.Name()
	}
	stack, err := mqsspulse.NewStack(devs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	if err := stack.Client.QRM().RegisterPool("fleet", names...); err != nil {
		t.Fatal(err)
	}
	if err := stack.Client.QRM().RegisterPool("solo", names[0]); err != nil {
		t.Fatal(err)
	}
	return stack
}

func fleetKernel(t *testing.T) *mqsspulse.Circuit {
	t.Helper()
	k := mqsspulse.NewCircuit("fleet-probe", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	return k
}

// runPoolBatch dispatches jobs identical kernels at the named pool and
// returns the wall-clock time for the whole batch to complete.
func runPoolBatch(t *testing.T, stack *mqsspulse.Stack, pool string, jobs int) time.Duration {
	t.Helper()
	kernels := make([]*mqsspulse.Circuit, jobs)
	k := fleetKernel(t)
	for i := range kernels {
		kernels[i] = k
	}
	start := time.Now()
	results, err := stack.Client.RunBatch(context.Background(), kernels, "",
		mqsspulse.SubmitOptions{Shots: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	return time.Since(start)
}

// TestFleetBatchSpeedup is the acceptance check for pool placement: a batch
// across a 4-simulator pool must finish in well under half the
// single-device wall time. The per-job device overhead dominates the
// workload, so ideal placement gives ≈0.25×; the 0.5× bound leaves a 2×
// margin for scheduler and CI jitter.
func TestFleetBatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const jobs = 64
	stack := fleetTestStack(t, 4, 8*time.Millisecond)
	// Warm the lowering cache so neither measurement pays the first JIT.
	runPoolBatch(t, stack, "fleet", 4)

	soloTime := runPoolBatch(t, stack, "solo", jobs)
	fleetTime := runPoolBatch(t, stack, "fleet", jobs)
	ratio := float64(fleetTime) / float64(soloTime)
	t.Logf("solo=%v fleet=%v ratio=%.2f", soloTime, fleetTime, ratio)
	if ratio >= 0.5 {
		t.Fatalf("4-device pool took %.2f× the single-device time, want < 0.5×", ratio)
	}

	st := stack.Client.QRM().Stats()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("fleet-%d", i)
		if st.Devices[name].Dispatched == 0 {
			t.Fatalf("device %s never dispatched (stats %+v)", name, st.Devices)
		}
	}
}

// TestFleetOverloadBackoff exercises admission control end to end: a tiny
// queue bound, a burst bigger than it, and a back-off/retry loop that still
// lands every job.
func TestFleetOverloadBackoff(t *testing.T) {
	stack := fleetTestStack(t, 2, 2*time.Millisecond)
	stack.Client.QRM().SetMaxQueueDepth(4)
	k := fleetKernel(t)

	var tickets []*mqsspulse.Ticket
	rejections := 0
	for submitted := 0; submitted < 32; {
		tk, err := stack.Client.SubmitCtx(context.Background(), k, "",
			mqsspulse.SubmitOptions{Shots: 4, Pool: "fleet"})
		if errors.Is(err, mqsspulse.ErrOverloaded) {
			rejections++
			time.Sleep(2 * time.Millisecond) // back off, then retry
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		submitted++
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	st := stack.Client.QRM().Stats()
	if st.Completed != 32 {
		t.Fatalf("completed = %d, want 32", st.Completed)
	}
	if int(st.Rejected) != rejections {
		t.Fatalf("stats.Rejected = %d, caller saw %d", st.Rejected, rejections)
	}
	t.Logf("rejections seen: %d", rejections)
}

// TestCancelReachesTheWorkerThatRunsTheJob: the QRM worker executes a
// SimDevice job itself, so a ticket's cancel has to find it there. A job
// held by a 30 s electronics overhead is cancelled mid-hold: its handle
// resolves ErrCancelled at once, and the device's one worker is free for the
// next job — no goroutine left behind to sit out the hold.
func TestCancelReachesTheWorkerThatRunsTheJob(t *testing.T) {
	testutil.AssertNoLeaks(t)
	dev, err := devices.New(tinyFleetConfig("hold-1", 7))
	if err != nil {
		t.Fatal(err)
	}
	dev.SetJobOverhead(30 * time.Second)
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stack.Close)
	ad := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "hold-1"}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	start := time.Now()
	held, err := mqsspulse.Start(ctx, ad, fleetKernel(t), mqsspulse.WithShots(16))
	if err != nil {
		t.Fatal(err)
	}
	for stack.Client.QRM().Stats().Devices["hold-1"].Dispatched == 0 {
		if ctx.Err() != nil {
			t.Fatal("job never reached the device")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // the worker is in the hold
	held.Cancel()
	if _, err := held.Wait(ctx); !errors.Is(err, mqsspulse.ErrCancelled) {
		t.Fatalf("cancelled job: err = %v, want ErrCancelled", err)
	}
	dev.SetJobOverhead(0)
	if _, err := mqsspulse.Run(ctx, ad, fleetKernel(t), mqsspulse.WithShots(16)); err != nil {
		t.Fatalf("job behind the cancelled one: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel and the next job took %v: the worker sat out the hold", elapsed)
	}
}
