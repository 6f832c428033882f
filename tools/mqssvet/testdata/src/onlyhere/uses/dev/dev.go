// Package dev is the device of the uses fixture.
package dev

import "sync/atomic"

// Submitter is a device's submit capability.
type Submitter interface{ Submit() }

// Device is the fixture's one device.
type Device struct {
	epoch   int
	calib   atomic.Pointer[calibration]
	handles atomic.Pointer[handles]
}

type calibration struct{ amp float64 }

type handles struct{ n int }

// Submit runs a job.
func (d *Device) Submit() {}

// Bump is the one writer of the epoch and the one publisher of a
// calibration.
func (d *Device) Bump() {
	d.epoch++
	d.calib.Store(&calibration{amp: 1})
}

// Reset writes the epoch a second way.
func (d *Device) Reset() {
	d.epoch = 0 // want "one calibration writer: dev.Device.epoch= in dev.Device.Reset"
}

// Fresh writes it through a keyed literal.
func Fresh() *Device {
	return &Device{epoch: 1} // want "one calibration writer: dev.Device.epoch= in dev.Fresh"
}

// Swap publishes a calibration a second way.
func (d *Device) Swap(c *calibration) {
	d.calib.Store(c) // want "one calibration writer: sync/atomic.Pointer\\[dev.calibration\\].Store in dev.Device.Swap"
}

// Cache publishes an atomic pointer of another type, which the rule does
// not confine.
func (d *Device) Cache() {
	d.handles.Store(&handles{n: 1})
}
