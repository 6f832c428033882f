package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/testutil"
)

// TestLoweringCacheEpochInvalidation: recalibrating the target invalidates
// the cached lowering; an unchanged target keeps hitting it.
func TestLoweringCacheEpochInvalidation(t *testing.T) {
	c, dev := testStack(t)
	k := bell(t)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm cache: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9)
	if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	st = c.CacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 1 {
		t.Fatalf("stale entry served after recalibration: hits = %d", st.Hits)
	}

	// The recompiled entry serves hits again while calibration holds.
	if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if got := c.CacheStats().Hits; got != 2 {
		t.Fatalf("post-recompile hit not served: hits = %d", got)
	}
}

// TestLoweringCacheBounded churns 10k distinct kernels through a 64-entry
// cache and checks the LRU bound holds throughout.
func TestLoweringCacheBounded(t *testing.T) {
	c, _ := testStack(t)
	const limit, kernels = 64, 10000
	c.cacheLimit = limit
	for i := 0; i < kernels; i++ {
		k := qpi.NewCircuit(fmt.Sprintf("churn-%d", i), 1, 0).RZ(0, 0.25)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Compile(k, "hpcqc-sc"); err != nil {
			t.Fatal(err)
		}
		if n := c.CacheStats().Entries; n > limit {
			t.Fatalf("after %d compiles: %d entries > bound %d", i+1, n, limit)
		}
	}
	st := c.CacheStats()
	if st.Entries != limit {
		t.Fatalf("steady-state entries = %d, want %d", st.Entries, limit)
	}
	if st.Evictions != kernels-limit {
		t.Fatalf("evictions = %d, want %d", st.Evictions, kernels-limit)
	}

	// LRU order: the most recent kernel survives churn, the first is gone.
	last := qpi.NewCircuit(fmt.Sprintf("churn-%d", kernels-1), 1, 0).RZ(0, 0.25)
	_ = last.End()
	if _, _, err := c.Compile(last, "hpcqc-sc"); err != nil {
		t.Fatal(err)
	}
	if got := c.CacheStats().Hits; got != 1 {
		t.Fatalf("most-recent entry evicted: hits = %d", got)
	}
}

// TestDispatchRejectsStaleEpoch: a payload queued before a recalibration
// must fail with ErrStaleCalibration instead of executing stale pulses.
func TestDispatchRejectsStaleEpoch(t *testing.T) {
	c, dev := testStack(t)
	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	compiledAt := dev.CalibrationEpoch()
	dev.SetCalibratedFrequency(0, dev.CalibratedFrequency(0)+1e3)

	tk, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
		Device: "hpcqc-sc", Payload: payload, Format: format, Shots: 10,
		CalibrationEpoch: compiledAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale payload dispatched: err = %v", err)
	}

	// The current epoch dispatches normally, and epoch zero opts out.
	for _, epoch := range []int64{dev.CalibrationEpoch(), 0} {
		tk, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
			Device: "hpcqc-sc", Payload: payload, Format: format, Shots: 10,
			CalibrationEpoch: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("epoch %d rejected: %v", epoch, err)
		}
	}
}

// TestRemoteStaleCalibrationCrossesWire: the server rejects a payload
// declared against a superseded epoch and the typed sentinel survives the
// wire.
func TestRemoteStaleCalibrationCrossesWire(t *testing.T) {
	c, dev := testStack(t)
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

	payload, format, err := c.Compile(bell(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := SubmitOptions{Shots: 10, CalibrationEpoch: dev.CalibrationEpoch()}
	if _, err := remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts); err != nil {
		t.Fatalf("fresh epoch rejected: %v", err)
	}

	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.9)
	_, err = remote.SubmitPayloadCtx(ctx, "hpcqc-sc", payload, format, opts)
	if !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale epoch accepted across the wire: err = %v", err)
	}
}

// gatedDevice parks a compile in its DefaultPulse query on the next gate a
// test queued, so the test orders two lowerings of one program.
type gatedDevice struct {
	*qdmitest.Device
	mu      sync.Mutex
	gates   []chan struct{}
	reached chan struct{} // receives once per parked query
}

// gate queues a gate for the next compile to query the device.
func (d *gatedDevice) gate() chan struct{} {
	g := make(chan struct{})
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gates = append(d.gates, g)
	return g
}

// DefaultPulse implements qdmi.Device.
func (d *gatedDevice) DefaultPulse(op string, sites []int) (*qdmi.PulseImpl, error) {
	d.mu.Lock()
	var g chan struct{}
	if len(d.gates) > 0 {
		g, d.gates = d.gates[0], d.gates[1:]
	}
	d.mu.Unlock()
	if g != nil {
		d.reached <- struct{}{}
		<-g
	}
	return d.Device.DefaultPulse(op, sites)
}

// TestLoweringRaceAcrossRecalibrationKeepsTheFreshProgram: lowering A
// starts at epoch 1 and stalls; the device recalibrates; lowering B of the
// same program starts at epoch 2; A finishes and caches its epoch-1
// program; then B finishes. B must return, and cache, its own epoch-2
// program — returning A's would fail B's job ErrStaleCalibration at
// dispatch though B compiled against the current calibration.
func TestLoweringRaceAcrossRecalibrationKeepsTheFreshProgram(t *testing.T) {
	testutil.AssertNoLeaks(t)
	sim, err := devices.Superconducting("hpcqc-sc", 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	dev := &gatedDevice{Device: qdmitest.Wrap(sim), reached: make(chan struct{})}
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	c := New(drv.OpenSession())
	t.Cleanup(c.Close)
	k := bell(t)

	type compiled struct {
		epoch int64
		err   error
	}
	compile := func() <-chan compiled {
		out := make(chan compiled, 1)
		go func() {
			_, _, epoch, err := c.CompileTraced(k, "hpcqc-sc", nil)
			out <- compiled{epoch, err}
		}()
		<-dev.reached
		return out
	}
	// Each lowering parks in its first calibration query on its own gate.
	gateA := dev.gate()
	a := compile()
	sim.SetCalibratedPiAmplitude(0, sim.CalibratedPiAmplitude(0)*0.9)
	fresh := sim.CalibrationEpoch()
	gateB := dev.gate()
	b := compile()
	close(gateA)
	if got := <-a; got.err != nil {
		t.Fatal(got.err)
	}
	close(gateB)
	got := <-b
	if got.err != nil || got.epoch != fresh {
		t.Fatalf("lowering B returned epoch %d (%v), want the epoch it compiled at, %d", got.epoch, got.err, fresh)
	}
	if _, _, epoch, err := c.CompileTraced(k, "hpcqc-sc", nil); err != nil || epoch != fresh {
		t.Fatalf("cached entry is at epoch %d (%v), want %d", epoch, err, fresh)
	}
	if st := c.CacheStats(); st.Hits != 1 || st.Invalidations != 1 {
		t.Fatalf("hits=%d invalidations=%d, want 1 and 1 (B replaced A's entry)", st.Hits, st.Invalidations)
	}
	if _, err := c.RunCtx(context.Background(), k, "hpcqc-sc", SubmitOptions{Shots: 8}); err != nil {
		t.Fatalf("job after the race: %v", err)
	}
}
