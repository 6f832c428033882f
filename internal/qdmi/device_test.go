package qdmi_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/waveform"
)

func TestDriverRegistry(t *testing.T) {
	d := qdmi.NewDriver()
	if err := d.RegisterDevice(qdmitest.New("sim-a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterDevice(qdmitest.New("sim-b", 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterDevice(qdmitest.New("sim-a", 2)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := d.RegisterDevice(qdmitest.New("", 2)); err == nil {
		t.Fatal("empty name accepted")
	}
	ses := d.OpenSession()
	for _, name := range []string{"sim-a", "sim-b"} {
		if dev, err := ses.Device(name); err != nil || dev.Name() != name {
			t.Fatalf("device %s: %v (%v)", name, dev, err)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	d := qdmi.NewDriver()
	_ = d.RegisterDevice(qdmitest.New("sim", 2))
	ses := d.OpenSession()
	dev, err := ses.Device("sim")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name() != "sim" {
		t.Fatal("wrong device")
	}
	if _, err := ses.Device("ghost"); err == nil {
		t.Fatal("ghost device resolved")
	}
	ses.Close()
	if _, err := ses.Device("sim"); err == nil {
		t.Fatal("closed session still resolves devices")
	}
}

func TestTypedQueryHelpers(t *testing.T) {
	dev := qdmitest.New("sim", 2)
	name, err := qdmi.QueryString(dev, qdmi.DevicePropName)
	if err != nil || name != "sim" {
		t.Fatalf("qdmi.QueryString: %v %q", err, name)
	}
	n, err := qdmi.QueryInt(dev, qdmi.DevicePropNumSites)
	if err != nil || n != 2 {
		t.Fatalf("qdmi.QueryInt: %v %d", err, n)
	}
	f, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
	if err != nil || f != 1e9 {
		t.Fatalf("qdmi.QueryFloat: %v %g", err, f)
	}
	ps, err := qdmi.QueryPulseSupport(dev)
	if err != nil || ps != qdmi.PulsePortLevel {
		t.Fatalf("qdmi.QueryPulseSupport: %v %v", err, ps)
	}
	// Type mismatches.
	if _, err := qdmi.QueryString(dev, qdmi.DevicePropNumSites); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := qdmi.QueryInt(dev, qdmi.DevicePropName); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if _, err := qdmi.QueryFloat(dev, qdmi.DevicePropName); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// A property the device does not know.
	if _, err := dev.QueryDeviceProperty(qdmi.DeviceProperty(-1)); !errors.Is(err, qdmi.ErrNotSupported) {
		t.Fatalf("want qdmi.ErrNotSupported, got %v", err)
	}
}

func TestSupportsFormat(t *testing.T) {
	dev := qdmitest.New("sim", 2)
	if !qdmi.SupportsFormat(dev, qdmi.FormatQIRPulse) {
		t.Fatal("qir-pulse should be supported")
	}
	if qdmi.SupportsFormat(dev, "mlir-pulse") {
		t.Fatal("mlir-pulse should not be supported")
	}
}

func TestSetAndQueryPulseImpl(t *testing.T) {
	dev := qdmitest.New("sim", 2)
	w, _ := waveform.DRAG{Amplitude: 0.4, SigmaFrac: 0.2, Beta: 0.8}.Materialize("w", 40)
	impl := &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{{Kind: "play", PortRole: "drive0", Waveform: w}}}
	if _, err := dev.DefaultPulse("x", []int{0}); !errors.Is(err, qdmi.ErrNotSupported) {
		t.Fatal("uncalibrated op should be qdmi.ErrNotSupported")
	}
	has, err := dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropHasPulseImpl)
	if err != nil || has.(bool) {
		t.Fatal("HasPulseImpl should be false before SetPulseImpl")
	}
	if err := dev.SetPulseImpl("x", []int{0}, impl); err != nil {
		t.Fatal(err)
	}
	got, err := dev.DefaultPulse("x", []int{0})
	if err != nil || got.Operation != "x" {
		t.Fatalf("DefaultPulse after set: %v %+v", err, got)
	}
	has, _ = dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropHasPulseImpl)
	if !has.(bool) {
		t.Fatal("HasPulseImpl should be true after SetPulseImpl")
	}
}

func TestJobFailure(t *testing.T) {
	dev := qdmitest.New("sim", 2)
	dev.FailOn = "poison"
	j, err := dev.SubmitJob([]byte("poison"), qdmi.FormatQIRPulse, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(context.Background()); st != qdmi.JobFailed {
		t.Fatalf("status = %v", st)
	}
	if _, err := j.Result(); !errors.Is(err, qdmitest.ErrScripted) {
		t.Fatalf("failed job: err = %v, want the scripted failure", err)
	}
}

// TestTargetEpochAndIndices: an epoch-unaware device reads as epoch zero, one
// that answers the property wrongly as an error (never as "unaware"); ports
// are found by site and ID, absent ones are nil, and a pulse is asked of the
// device once per (operation, site tuple) of at most two sites.
func TestTargetEpochAndIndices(t *testing.T) {
	dev, mistyped := qdmitest.New("sim", 2), qdmitest.New("mistyped", 2)
	dev.Props = map[qdmi.DeviceProperty]any{qdmi.DevicePropCalibrationEpoch: qdmi.ErrNotSupported}
	mistyped.Props = map[qdmi.DeviceProperty]any{qdmi.DevicePropCalibrationEpoch: "seven"}
	tg := qdmi.NewTarget(dev)
	if e, err := tg.Epoch(); e != 0 || err != nil {
		t.Fatalf("epoch-unaware device: epoch %d, %v", e, err)
	}
	if _, err := qdmi.NewTarget(mistyped).Epoch(); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("mistyped epoch: %v, want qdmi.ErrInvalidArgument", err)
	}
	if p := tg.Drive(1); p == nil || p.ID != "q1-drive" || tg.Port("q1-drive") != p {
		t.Fatalf("drive of site 1 = %v", p)
	}
	if tg.Drive(2) != nil || tg.Drive(-1) != nil || tg.Readout(0) != nil || tg.Coupler(0, 1) != nil || tg.Port("nope") != nil {
		t.Fatal("a port the device does not have was found")
	}
	if tg.Granularity != 1 || tg.MinSamples != 0 || tg.MaxSamples != 0 {
		t.Fatalf("unanswered constraints read as %d/%d/%d, want 1/0/0", tg.Granularity, tg.MinSamples, tg.MaxSamples)
	}

	w, _ := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize("w", 32)
	x := &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{{Kind: "play", PortRole: "drive0", Waveform: w}}}
	if err := dev.SetPulseImpl("x", []int{0}, x); err != nil {
		t.Fatal(err)
	}
	first, err := tg.Envelope("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The view is not refreshed: what it answered once it answers again.
	if err := dev.SetPulseImpl("x", []int{0}, &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{{Kind: "barrier"}}}); err != nil {
		t.Fatal(err)
	}
	if again, err := tg.Envelope("x", 0); err != nil || again != first {
		t.Fatalf("second ask: %v, %v", again, err)
	}
	if impl, err := tg.Pulse("x", 0); err != nil || !reflect.DeepEqual(impl, x) {
		t.Fatalf("Pulse after Envelope: %v, %v", impl, err)
	}
	if _, err := tg.Pulse("ccz", 0, 1, 2); !errors.Is(err, qdmi.ErrInvalidArgument) {
		t.Fatalf("three-site tuple: %v", err)
	}
}
