package testutil

import "runtime/debug"

// RaceDetector reports whether the test binary was built with -race, for
// the timing and allocation contracts whose readings the detector moves.
func RaceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
