// Package qrm submits to the device.
package qrm

import "mqsspulse/tools/mqssvet/testdata/src/onlyhere/stale/dev"

// Dispatch submits.
func Dispatch(d *dev.Device) { d.Submit() }
