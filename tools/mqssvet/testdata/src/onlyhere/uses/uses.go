// Package uses calls a device from outside the QRM: a call the grep saw,
// and a method value it did not.
package uses

import "mqsspulse/tools/mqssvet/testdata/src/onlyhere/uses/dev"

// Direct calls the concrete method.
func Direct(d *dev.Device) {
	d.Submit() // want "one way to a device: dev.Device.Submit in .Direct"
}

// Later hands out the interface's method value, with no call in sight.
func Later(s dev.Submitter) func() {
	return s.Submit // want "one way to a device: dev.Submitter.Submit in .Later"
}

// ShotWorkers is a knob by a deleted name.
var ShotWorkers = 2 // want "one sampler: def ShotWorkers in \\."

// Pairs spells out the pair form.
func Pairs() [][2]float64 { return nil } // want "one waveform value: \\[\\]\\[2\\]float64 in .Pairs"

// wrapped promotes the device's methods.
type wrapped struct{ *dev.Device }

// Embedded calls through the promoted method, still the device's.
func Embedded(w wrapped) {
	w.Submit() // want "one way to a device: dev.Device.Submit in .Embedded"
}
