package devices

import (
	"errors"
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
)

// TestCalibrationEpochBumpContract pins the qdmi bump contract: every
// calibration mutation — all four table setters and installed pulse
// implementations — increments the epoch, and nothing else does.
func TestCalibrationEpochBumpContract(t *testing.T) {
	dev, err := Superconducting("epoch", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e := dev.CalibrationEpoch(); e != 1 {
		t.Fatalf("fresh device epoch = %d, want 1", e)
	}
	if e, err := qdmi.QueryCalibrationEpoch(dev); err != nil || e != 1 {
		t.Fatalf("QueryCalibrationEpoch = %d, %v", e, err)
	}

	dev.SetCalibratedFrequency(0, dev.CalibratedFrequency(0)+1e3)
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*0.99)
	dev.SetCalibratedReadoutFidelity(0, 0.97)
	impl := &qdmi.PulseImpl{Operation: "mygate", Steps: []qdmi.PulseStep{
		{Kind: "shift_phase", PortRole: "drive0", PhaseRad: 0.1},
	}}
	if err := dev.SetPulseImpl("mygate", []int{0}, impl); err != nil {
		t.Fatal(err)
	}
	if e := dev.CalibrationEpoch(); e != 5 {
		t.Fatalf("epoch after 4 mutations = %d, want 5", e)
	}

	// Rejected mutations and read-only traffic must not bump.
	if err := dev.SetPulseImpl("bad", []int{0}, &qdmi.PulseImpl{}); err == nil {
		t.Fatal("invalid pulse impl accepted")
	}
	if _, err := dev.DefaultPulse("x", []int{0}); err != nil {
		t.Fatal(err)
	}
	dev.AdvanceTime(100)
	if e := dev.CalibrationEpoch(); e != 5 {
		t.Fatalf("epoch moved without a calibration mutation: %d", e)
	}
}

// TestCalibrationEpochQueryTyping exercises the typed helper against a
// device that lacks the property, a stand-in for devices predating it.
func TestCalibrationEpochQueryTyping(t *testing.T) {
	dev := qdmitest.New("epochless", 1)
	dev.Props = map[qdmi.DeviceProperty]any{qdmi.DevicePropCalibrationEpoch: qdmi.ErrNotSupported}
	if _, err := qdmi.QueryCalibrationEpoch(dev); !errors.Is(err, qdmi.ErrNotSupported) {
		t.Fatalf("epochless device: err = %v, want ErrNotSupported", err)
	}
}
