package qdmitest_test

import (
	"testing"

	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qdmi/qdmitest"
	"mqsspulse/internal/testutil"
)

// TestDeviceConforms: the fake device, and a device wrapping one, keep the
// QDMI contract.
func TestDeviceConforms(t *testing.T) {
	testutil.AssertNoLeaks(t)
	t.Run("fake", func(t *testing.T) {
		qdmitest.Conformance(t, func(*testing.T) qdmi.Device { return qdmitest.New("fake", 2) })
	})
	t.Run("wrapped", func(t *testing.T) {
		qdmitest.Conformance(t, func(*testing.T) qdmi.Device { return qdmitest.Wrap(qdmitest.New("inner", 2)) })
	})
}
