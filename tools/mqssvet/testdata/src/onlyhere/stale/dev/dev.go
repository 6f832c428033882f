// Package dev is the device of the stale fixture.
package dev

// Device is the fixture's one device.
type Device struct{}

// Submit runs a job.
func (d *Device) Submit() {}
