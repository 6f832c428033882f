// Package dev is the device of the uses fixture.
package dev

// Submitter is a device's submit capability.
type Submitter interface{ Submit() }

// Device is the fixture's one device.
type Device struct{ epoch int }

// Submit runs a job.
func (d *Device) Submit() {}

// Bump is the one writer of the epoch.
func (d *Device) Bump() { d.epoch++ }

// Reset writes the epoch a second way.
func (d *Device) Reset() {
	d.epoch = 0 // want "one calibration writer: dev.Device.epoch= in dev.Device.Reset"
}

// Fresh writes it through a keyed literal.
func Fresh() *Device {
	return &Device{epoch: 1} // want "one calibration writer: dev.Device.epoch= in dev.Fresh"
}
