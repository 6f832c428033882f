// Package deadexport is the root of the deadexport fixture, standing in for
// api.go, cmd/ and examples/: what it references under internal/ is live.
package deadexport

import "mqsspulse/tools/mqssvet/testdata/src/deadexport/internal/qpi"

var (
	_              = qpi.Used
	_              = qpi.Drain
	_ qpi.Shape    = qpi.Square{}
	_ *qpi.Circuit = nil
	_              = qpi.Apply(qpi.WithLabel("x"), qpi.WithTrace("t"))
	_              = qpi.NewCounter().Count
	_              = qpi.Mark
	_              = qpi.NewJob().ID
	_              = qpi.Encode
	_              = qpi.Defaults
)

// Settings is the facade's name for qpi.Settings: its fields are read by
// callers outside the program.
type Settings = qpi.Settings
