// Package readout is the pulse-level acquisition and readout subsystem:
// measurement levels (raw IQ traces, kerneled single points, discriminated
// bits), integration kernels, trainable state discriminators with
// serializable models, and confusion-matrix readout-error mitigation.
//
// It mirrors how pulse-level stacks expose the analog measurement chain
// (XACC's pulse extension, Qiskit's meas_level/meas_return): the device
// digitizes a capture window into an IQ trace, a kernel integrates the
// trace into one point in the IQ plane, and a discriminator classifies the
// point into a bit. Each stage is addressable so users can calibrate
// readout, train their own discriminators, and undo assignment errors.
package readout

import "fmt"

// MeasLevel selects how far down the readout chain results are returned.
// The zero value is LevelDiscriminated, so every pre-existing code path
// keeps its classified-counts behaviour without changes.
type MeasLevel int

// Measurement levels, ordered from most processed to least.
const (
	// LevelDiscriminated returns classified bits (counts) only.
	LevelDiscriminated MeasLevel = iota
	// LevelKerneled returns one integrated IQ point per shot per capture,
	// plus the discriminated counts derived from them.
	LevelKerneled
	// LevelRaw additionally returns the full per-sample IQ trace of every
	// capture window.
	LevelRaw
)

// String implements fmt.Stringer.
func (l MeasLevel) String() string {
	switch l {
	case LevelDiscriminated:
		return "discriminated"
	case LevelKerneled:
		return "kerneled"
	case LevelRaw:
		return "raw"
	default:
		return fmt.Sprintf("MeasLevel(%d)", int(l))
	}
}

// ParseMeasLevel is the inverse of String, used by the remote wire format.
// The empty string parses as LevelDiscriminated (legacy requests).
func ParseMeasLevel(s string) (MeasLevel, error) {
	switch s {
	case "", "discriminated":
		return LevelDiscriminated, nil
	case "kerneled":
		return LevelKerneled, nil
	case "raw":
		return LevelRaw, nil
	default:
		return LevelDiscriminated, fmt.Errorf("readout: unknown measurement level %q", s)
	}
}

// MeasReturn selects whether per-shot records or their average come back.
type MeasReturn int

// Measurement return modes.
const (
	// ReturnSingle returns one record per shot.
	ReturnSingle MeasReturn = iota
	// ReturnAverage returns records averaged over all shots.
	ReturnAverage
)

// String implements fmt.Stringer.
func (r MeasReturn) String() string {
	switch r {
	case ReturnSingle:
		return "single"
	case ReturnAverage:
		return "avg"
	default:
		return fmt.Sprintf("MeasReturn(%d)", int(r))
	}
}

// ParseMeasReturn is the inverse of String. The empty string parses as
// ReturnSingle.
func ParseMeasReturn(s string) (MeasReturn, error) {
	switch s {
	case "", "single":
		return ReturnSingle, nil
	case "avg", "average":
		return ReturnAverage, nil
	default:
		return ReturnSingle, fmt.Errorf("readout: unknown measurement return %q", s)
	}
}

// IQ is one point in the in-phase/quadrature plane — the output of
// integrating a capture window.
type IQ struct {
	I float64 `json:"i"`
	Q float64 `json:"q"`
}

// Sub returns p − q.
func (p IQ) Sub(q IQ) IQ { return IQ{p.I - q.I, p.Q - q.Q} }

// Dot returns the inner product ⟨p, q⟩.
func (p IQ) Dot(q IQ) float64 { return p.I*q.I + p.Q*q.Q }

// Mean averages a set of IQ points; the zero point for an empty set.
func Mean(points []IQ) IQ {
	if len(points) == 0 {
		return IQ{}
	}
	var m IQ
	for _, p := range points {
		m.I += p.I
		m.Q += p.Q
	}
	m.I /= float64(len(points))
	m.Q /= float64(len(points))
	return m
}
