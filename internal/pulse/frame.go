package pulse

import (
	"mqsspulse/internal/waveform"
)

// Frame is a stateful timing and carrier-signal abstraction combining a
// reference clock, carrier frequency, and phase (paper, Section 4). It
// tracks elapsed time and provides the timing, frequency, and phase context
// for playing waveforms, enabling carrier modulation and virtual phase
// rotations (virtual-Z gates).
type Frame struct {
	// ID names the frame, e.g. "q0-drive-frame".
	ID string
	// FrequencyHz is the current carrier frequency.
	FrequencyHz float64
	// PhaseRad is the current accumulated carrier phase.
	PhaseRad float64
}

// NewFrame creates a frame at phase 0.
func NewFrame(id string, freqHz float64) *Frame {
	return &Frame{ID: id, FrequencyHz: freqHz}
}

// ShiftPhase adds dphi to the carrier phase (a virtual rotation; free and
// instantaneous on hardware).
func (f *Frame) ShiftPhase(dphi float64) { f.PhaseRad = waveform.WrapPhase(f.PhaseRad + dphi) }

// SetPhase overrides the carrier phase.
func (f *Frame) SetPhase(phi float64) { f.PhaseRad = waveform.WrapPhase(phi) }

// ShiftFrequency detunes the carrier by df.
func (f *Frame) ShiftFrequency(df float64) { f.FrequencyHz += df }

// SetFrequency overrides the carrier frequency.
func (f *Frame) SetFrequency(fHz float64) { f.FrequencyHz = fHz }
