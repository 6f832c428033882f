package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/testutil"
)

// fleetClient builds a client over n identical simulators dev-0..dev-(n-1)
// registered as pool "sims". Every fleet test also asserts its workers
// are gone after Close — registered first, so the check runs after the
// Close cleanup.
func fleetClient(t *testing.T, n int) *Client {
	t.Helper()
	testutil.AssertNoLeaks(t)
	drv := qdmi.NewDriver()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		dev, err := devices.Superconducting(fmtDev(i), 2, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.RegisterDevice(dev); err != nil {
			t.Fatal(err)
		}
		names[i] = dev.Name()
	}
	c := New(drv.OpenSession())
	t.Cleanup(c.Close)
	if err := c.QRM().RegisterPool("sims", names...); err != nil {
		t.Fatal(err)
	}
	return c
}

func fmtDev(i int) string { return "dev-" + string(rune('0'+i)) }

func TestClientPoolSubmission(t *testing.T) {
	c := fleetClient(t, 2)
	res, err := c.RunCtx(context.Background(), bell(t), "", SubmitOptions{Shots: 256, Pool: "sims"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 256 {
		t.Fatalf("shots = %d", res.Shots)
	}
	st := c.QRM().Stats()
	if st.Completed != 1 || st.Pools["sims"].Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Pool submissions compile once against the representative member and
	// hit the lowering cache afterwards.
	if _, err := c.RunCtx(context.Background(), bell(t), "", SubmitOptions{Shots: 64, Pool: "sims"}); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits == 0 {
		t.Fatal("pool submissions bypassed the lowering cache")
	}
}

func TestClientPoolViaExecOption(t *testing.T) {
	c := fleetClient(t, 2)
	// NativeAdapter with no fixed target: qpi.WithPool carries the whole
	// routing decision.
	backend := &NativeAdapter{Client: c}
	res, err := qpi.Run(context.Background(), backend, bell(t), qpi.WithShots(128), qpi.WithPool("sims"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 128 {
		t.Fatalf("shots = %d", res.Shots)
	}
}

func TestClientUnknownPoolTyped(t *testing.T) {
	c := fleetClient(t, 1)
	_, err := c.RunCtx(context.Background(), bell(t), "", SubmitOptions{Shots: 16, Pool: "ghost"})
	if !errors.Is(err, qrm.ErrNoSuchTarget) {
		t.Fatalf("err = %v, want ErrNoSuchTarget", err)
	}
}

// TestRemoteStolenJobCheckedAgainstNamedDevice: a job that names a pool
// member is checked against that member's calibration whichever sibling
// steals it, and a remote job is the job a local one is. dev-1 has
// recalibrated since the program was compiled for dev-0; with dev-0 busy,
// idle dev-1 steals the job and runs it on both paths. Recalibrating dev-0
// while the job is queued fails it on both.
func TestRemoteStolenJobCheckedAgainstNamedDevice(t *testing.T) {
	c := fleetClient(t, 2)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	ctx := context.Background()
	sim := func(name string) *devices.SimDevice {
		dev, err := c.session.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		return dev.(*devices.SimDevice)
	}
	dev0, dev1 := sim(fmtDev(0)), sim(fmtDev(1))
	recalibrate := func(dev *devices.SimDevice) { dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9) }
	// park holds dev's worker on a job until the returned function cancels it.
	park := func(dev *devices.SimDevice) func() {
		dev.SetJobOverhead(time.Minute)
		tk, err := c.SubmitCtx(ctx, bell(t), dev.Name(), SubmitOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		for tk.Status() == qdmi.JobQueued {
			time.Sleep(time.Millisecond)
		}
		return func() {
			tk.Cancel()
			_, _ = tk.Wait(context.Background())
		}
	}

	recalibrate(dev1)
	k := bell(t)
	payload, format, epoch, err := c.CompileTraced(k, dev0.Name(), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := SubmitOptions{Shots: 16}
	remoteOpts := SubmitOptions{Shots: 16, CalibrationEpoch: epoch}
	defer park(dev0)()

	tk, err := c.SubmitCtx(ctx, k, dev0.Name(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil || tk.Device() != dev1.Name() {
		t.Fatalf("local job naming dev-0: ran on %q, err = %v; want dev-1, no error", tk.Device(), err)
	}
	stolen := c.QRM().Stats().Devices[dev1.Name()].Stolen
	if _, err := remote.SubmitPayloadCtx(ctx, dev0.Name(), payload, format, remoteOpts); err != nil {
		t.Fatalf("remote job naming dev-0: %v", err)
	}
	if got := c.QRM().Stats().Devices[dev1.Name()].Stolen; got != stolen+1 {
		t.Fatalf("dev-1 stole %d jobs, want %d: the remote job did not run there", got, stolen+1)
	}

	// The converse: both devices busy, so both jobs wait on dev-0's queue
	// while dev-0 recalibrates; dev-1 steals them once it is free.
	unpark1 := park(dev1)
	tk, err = c.SubmitCtx(ctx, k, dev0.Name(), opts)
	if err != nil {
		t.Fatal(err)
	}
	remoteErr := make(chan error, 1)
	go func() {
		_, err := remote.SubmitPayloadCtx(ctx, dev0.Name(), payload, format, remoteOpts)
		remoteErr <- err
	}()
	for c.QRM().Stats().Devices[dev0.Name()].Depth < 2 {
		time.Sleep(time.Millisecond)
	}
	recalibrate(dev0)
	unpark1()
	if _, err := tk.Wait(ctx); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("local job queued across dev-0's recalibration: err = %v, want ErrStaleCalibration", err)
	}
	if err := <-remoteErr; !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("remote job queued across dev-0's recalibration: err = %v, want ErrStaleCalibration", err)
	}
}

func TestRemotePoolSubmission(t *testing.T) {
	c := fleetClient(t, 2)
	srv, err := NewServer(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := NewRemoteAdapter(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	payload, format, err := c.Compile(bell(t), fmtDev(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := remote.SubmitPayloadCtx(context.Background(), "", payload, format,
		SubmitOptions{Shots: 64, Pool: "sims"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 64 {
		t.Fatalf("shots = %d", res.Shots)
	}
	// Typed target errors cross the wire.
	if _, err := remote.SubmitPayloadCtx(context.Background(), "", payload, format,
		SubmitOptions{Shots: 64, Pool: "ghost"}); !errors.Is(err, qrm.ErrNoSuchTarget) {
		t.Fatalf("err = %v, want ErrNoSuchTarget across the wire", err)
	}
	// So do the scheduler's own request rejections, not only the device's.
	if _, err := remote.SubmitPayloadCtx(context.Background(), fmtDev(0), payload, format,
		SubmitOptions{Shots: 0}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("err = %v, want ErrInvalidArgument across the wire for zero shots", err)
	}
}
