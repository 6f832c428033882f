// Package deadexport is the root of the deadexport fixture, standing in for
// api.go, cmd/ and examples/: what it references under internal/ is live.
package deadexport

import "mqsspulse/tools/mqssvet/testdata/src/deadexport/internal/qpi"

var (
	_              = qpi.Used
	_              = qpi.Drain
	_ qpi.Shape    = qpi.Square{}
	_ *qpi.Circuit = nil
)
