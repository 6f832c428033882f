package devices_test

import (
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
)

// TestPresetsConform: every simulator preset keeps the QDMI contract.
func TestPresetsConform(t *testing.T) {
	for _, preset := range []string{"sc", "ion", "atom"} {
		t.Run(preset, func(t *testing.T) {
			qdmitest.Conformance(t, func(t *testing.T) qdmi.Device {
				dev, err := devices.Preset(preset, preset, 2, 5)
				if err != nil {
					t.Fatal(err)
				}
				return dev
			})
		})
	}
}
