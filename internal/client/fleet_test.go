package client

import (
	"context"
	"errors"
	"testing"

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
