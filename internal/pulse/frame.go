package pulse

import (
	"fmt"

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
	// TimeSamples is the frame's logical clock in sample ticks: time that
	// increments with use.
	TimeSamples int64
}

// NewFrame creates a frame at phase 0, time 0.
func NewFrame(id string, freqHz float64) *Frame {
	return &Frame{ID: id, FrequencyHz: freqHz}
}

// Clone returns a copy of the frame state.
func (f *Frame) Clone() *Frame {
	c := *f
	return &c
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

// Advance moves the logical clock forward by n samples.
func (f *Frame) Advance(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("pulse: frame %s advanced by negative duration %d", f.ID, n))
	}
	f.TimeSamples += n
}

// MixedFrame binds a frame to the port it modulates — the structure the
// paper (Section 5.2, IBM pulse dialect) calls a "mixed frame": port channel
// plus frame state. Play/capture operations target mixed frames.
type MixedFrame struct {
	Port  *Port
	Frame *Frame
}

// NewMixedFrame validates and pairs a port with a frame.
func NewMixedFrame(p *Port, f *Frame) (*MixedFrame, error) {
	if p == nil || f == nil {
		return nil, fmt.Errorf("pulse: mixed frame needs both port and frame")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &MixedFrame{Port: p, Frame: f}, nil
}

// ID returns the canonical "frame@port" identifier.
func (mf *MixedFrame) ID() string { return mf.Frame.ID + "@" + mf.Port.ID }
