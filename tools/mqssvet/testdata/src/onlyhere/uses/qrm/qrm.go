// Package qrm is the one package that may submit to a device.
package qrm

import "mqsspulse/tools/mqssvet/testdata/src/onlyhere/uses/dev"

// Dispatch submits through the capability.
func Dispatch(s dev.Submitter) { s.Submit() }
