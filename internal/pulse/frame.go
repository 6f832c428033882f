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
}

// NewFrame creates a frame at phase 0.
func NewFrame(id string, freqHz float64) *Frame {
	return &Frame{ID: id, FrequencyHz: freqHz}
}

// FrameKind is what a frame update does to its frame (Frame.Apply). The
// kinds are the dialect's five frame ops, named by their mnemonics.
type FrameKind uint8

// Frame-update kinds.
const (
	ShiftPhase     FrameKind = iota // adds the phase: a virtual Z, free on hardware
	SetPhase                        // overrides the phase
	ShiftFrequency                  // detunes the carrier by the frequency
	SetFrequency                    // overrides the carrier frequency
	FrameChange                     // sets the frequency and shifts the phase (qFrameChange)
)

var frameKindNames = [...]string{"shift_phase", "set_phase", "shift_frequency", "set_frequency", "frame_change"}

// String returns the kind's mnemonic, e.g. "shift_phase".
func (k FrameKind) String() string {
	if int(k) < len(frameKindNames) {
		return frameKindNames[k]
	}
	return fmt.Sprintf("FrameKind(%d)", k)
}

// Known reports whether k is one of the five kinds.
func (k FrameKind) Known() bool { return int(k) < len(frameKindNames) }

// FrameKindNamed returns the kind whose mnemonic is name.
func FrameKindNamed(name string) (FrameKind, bool) {
	for k, n := range frameKindNames {
		if n == name {
			return FrameKind(k), true
		}
	}
	return 0, false
}

// Reads reports which of a frame update's two values the kind reads: the
// frequency (Hz), the phase (rad), or — a frame change — both.
func (k FrameKind) Reads() (hz, phase bool) {
	return k == ShiftFrequency || k == SetFrequency || k == FrameChange,
		k == ShiftPhase || k == SetPhase || k == FrameChange
}

// Apply updates the frame as a frame update of kind k with values hz and
// phase does. A phase is kept wrapped into (−π, π].
func (f *Frame) Apply(k FrameKind, hz, phase float64) {
	switch k {
	case ShiftPhase:
		f.PhaseRad = waveform.WrapPhase(f.PhaseRad + phase)
	case SetPhase:
		f.PhaseRad = waveform.WrapPhase(phase)
	case ShiftFrequency:
		f.FrequencyHz += hz
	case SetFrequency:
		f.FrequencyHz = hz
	case FrameChange:
		f.FrequencyHz = hz
		f.PhaseRad = waveform.WrapPhase(f.PhaseRad + phase)
	}
}
