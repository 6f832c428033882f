package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
)

// sweepStack builds a stack around a fresh superconducting device with a
// caller-chosen seed, so two stacks with equal seeds produce identical
// per-job shot streams.
func sweepStack(t *testing.T, seed int64) (*Client, *devices.SimDevice) {
	t.Helper()
	dev, err := devices.Superconducting("hpcqc-sc", 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	c := New(drv.OpenSession())
	t.Cleanup(c.Close)
	return c, dev
}

func rabiSweepTemplate(t *testing.T) *ptemplate.Template {
	t.Helper()
	k := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	tpl, err := ptemplate.New(k, ptemplate.Param{Name: "theta", Min: 1e-3, Max: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func sweepAngles(n int) []ptemplate.Bindings {
	bindings := make([]ptemplate.Bindings, n)
	for i := range bindings {
		bindings[i] = ptemplate.Bindings{"theta": math.Pi * float64(i+1) / float64(n)}
	}
	return bindings
}

// TestSweepE2ERabi1024 is the deferred-binding acceptance test: a
// 1024-point Rabi amplitude sweep through the sweep API compiles exactly
// once (1 miss, 1023 binds) while a twin stack compiling every point from
// scratch must measure the exact same per-point P(1) — the bound payloads
// are byte-identical to fresh compiles and the device RNG streams align.
func TestSweepE2ERabi1024(t *testing.T) {
	const points, shots, seed = 1024, 16, 12345
	tplClient, _ := sweepStack(t, seed)
	refClient, _ := sweepStack(t, seed)
	bindings := sweepAngles(points)

	results, err := tplClient.RunSweep(context.Background(),
		rabiSweepTemplate(t), "hpcqc-sc", bindings, SubmitOptions{Shots: shots})
	if err != nil {
		t.Fatal(err)
	}

	st := tplClient.CacheStats()
	if st.Misses != 1 || st.Binds != points-1 {
		t.Fatalf("sweep cache: misses=%d binds=%d, want 1/%d", st.Misses, st.Binds, points-1)
	}
	if st.TemplateEntries != 1 {
		t.Fatalf("template entries = %d, want 1", st.TemplateEntries)
	}
	if st.Hits != 0 || st.Invalidations != 0 {
		t.Fatalf("unexpected cache traffic: hits=%d invalidations=%d", st.Hits, st.Invalidations)
	}

	for i, b := range bindings {
		if results[i].Err != nil {
			t.Fatalf("point %d: %v", i, results[i].Err)
		}
		ref := qpi.NewCircuit("rabi", 1, 1).RX(0, b["theta"]).Measure(0, 0)
		if err := ref.End(); err != nil {
			t.Fatal(err)
		}
		refRes, err := refClient.RunCtx(context.Background(), ref, "hpcqc-sc", SubmitOptions{Shots: shots})
		if err != nil {
			t.Fatalf("point %d reference: %v", i, err)
		}
		got, want := results[i].Result.Probability(1), refRes.Probability(1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("point %d (theta=%g): P(1)=%g via template, %g via per-point compile",
				i, b["theta"], got, want)
		}
	}
}

// TestSweepBadParamFailsInPlace: a malformed point is rejected with
// ErrBadParam before entering the scheduler queue, and its siblings
// complete untouched.
func TestSweepBadParamFailsInPlace(t *testing.T) {
	c, _ := sweepStack(t, 7)
	bindings := []ptemplate.Bindings{
		{"theta": 1.0},
		{"theta": math.NaN()},
		{"theta": 99},
		{"theta": 2.0},
		nil,
	}
	results, err := c.RunSweep(context.Background(),
		rabiSweepTemplate(t), "hpcqc-sc", bindings, SubmitOptions{Shots: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{1, 2, 4} {
		if !errors.Is(results[bad].Err, ptemplate.ErrBadParam) {
			t.Fatalf("point %d: err = %v, want ErrBadParam", bad, results[bad].Err)
		}
	}
	for _, good := range []int{0, 3} {
		if results[good].Err != nil || results[good].Result == nil {
			t.Fatalf("point %d sunk by bad siblings: %+v", good, results[good])
		}
	}
}

// TestBoundDispatchRejectsStaleEpoch: a compiled template outlives a
// recalibration; dispatching its bound points with the old epoch fails
// with the typed ErrStaleCalibration, exactly like a concrete payload.
func TestBoundDispatchRejectsStaleEpoch(t *testing.T) {
	c, dev := sweepStack(t, 7)
	compiled, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.95)

	tk, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
		Device: "hpcqc-sc", Template: compiled, Bindings: ptemplate.Bindings{"theta": 1},
		Shots: 8, CalibrationEpoch: compiled.Epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, qrm.ErrStaleCalibration) {
		t.Fatalf("stale bound payload dispatched: err = %v", err)
	}

	// The sweep path re-lowers at the new epoch instead of dispatching the
	// stale entry: one invalidation, one fresh miss, and the point runs.
	results, err := c.RunSweep(context.Background(),
		rabiSweepTemplate(t), "hpcqc-sc", sweepAngles(4), SubmitOptions{Shots: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("point %d after recalibration: %v", i, results[i].Err)
		}
	}
	st := c.CacheStats()
	if st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("recalibrated sweep: invalidations=%d misses=%d, want 1/2", st.Invalidations, st.Misses)
	}
}

// TestSweepRequestValidation: a request cannot carry both a payload and a
// template, and template bindings are validated at submission.
func TestSweepRequestValidation(t *testing.T) {
	c, _ := sweepStack(t, 7)
	compiled, err := c.CompileTemplate(rabiSweepTemplate(t), "hpcqc-sc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
		Device: "hpcqc-sc", Template: compiled, Bindings: ptemplate.Bindings{"theta": 1},
		Payload: []byte("x"), Shots: 8,
	}); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("request with both payload and template: err = %v, want ErrInvalidArgument", err)
	}
	if _, err := c.QRM().SubmitCtx(context.Background(), qrm.Request{
		Device: "hpcqc-sc", Template: compiled, Bindings: ptemplate.Bindings{"theta": -5},
		Shots: 8,
	}); !errors.Is(err, ptemplate.ErrBadParam) {
		t.Fatalf("out-of-range binding reached the queue: err = %v", err)
	}
}

// TestCompileRejectsParametricKernel: the concrete compile path refuses a
// kernel with unbound slots and points at the template API.
func TestCompileRejectsParametricKernel(t *testing.T) {
	c, _ := sweepStack(t, 7)
	k := qpi.NewCircuit("oops", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Compile(k, "hpcqc-sc"); err == nil {
		t.Fatal("concrete compile accepted a parametric kernel")
	}
	if _, err := c.RunCtx(context.Background(), k, "hpcqc-sc", SubmitOptions{Shots: 8}); err == nil {
		t.Fatal("Run accepted a parametric kernel")
	}
}

// TestSweepBindWireErrorKinds: the bad_param error kind rebuilds its typed
// error from the wire.
func TestSweepBindWireErrorKinds(t *testing.T) {
	if err := errorFromWire("bad_param", "x"); !errors.Is(err, ptemplate.ErrBadParam) {
		t.Fatalf("bad_param kind lost the sentinel: %v", err)
	}
	if kind := errorKind(fmt.Errorf("wrap: %w", ptemplate.ErrBadParam)); kind != "bad_param" {
		t.Fatalf("errorKind = %q, want bad_param", kind)
	}
}
