// Package optctl imports linalg, as it may, and devices, as it must not.
package optctl

import (
	"math"

	"mqsspulse/tools/mqssvet/testdata/src/onlyhere/imports/devices" // want "optctl is pure math: optctl imports in devices"
	"mqsspulse/tools/mqssvet/testdata/src/onlyhere/imports/linalg"
)

// Norm is pure math over a device constant.
func Norm(v []float64) float64 { return math.Sqrt(linalg.Dot(v, v)) * devices.Rabi }
