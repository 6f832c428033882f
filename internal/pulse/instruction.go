package pulse

import (
	"fmt"

	"mqsspulse/internal/waveform"
)

// Instruction is one timed pulse-level operation. The set mirrors the
// paper's MLIR pulse dialect (Section 5.2): play, delay, barrier,
// shift/set phase, shift/set frequency, and capture.
type Instruction interface {
	// PortID names the port this instruction acts on. Barriers return "".
	PortID() string
	// Duration returns the instruction length in samples on the given port.
	Duration(p *Port) int64
	// String renders a compact assembly-like form.
	String() string
	isInstruction()
}

// Play emits a waveform on a port, modulated by the port's active frame
// (paper primitive: qPlayWaveform / pulse.play).
type Play struct {
	Port     string
	Frame    string
	Waveform *waveform.Waveform
}

// PortID implements Instruction.
func (p *Play) PortID() string { return p.Port }

// Duration implements Instruction.
func (p *Play) Duration(*Port) int64 { return int64(p.Waveform.Len()) }

// String implements Instruction.
func (p *Play) String() string {
	return fmt.Sprintf("play %s on %s/%s (%d samples)", p.Waveform.Name, p.Port, p.Frame, p.Waveform.Len())
}

func (p *Play) isInstruction() {}

// Delay idles a port for a fixed number of samples (pulse.delay).
type Delay struct {
	Port    string
	Samples int64
}

// PortID implements Instruction.
func (d *Delay) PortID() string { return d.Port }

// Duration implements Instruction.
func (d *Delay) Duration(*Port) int64 { return d.Samples }

// String implements Instruction.
func (d *Delay) String() string { return fmt.Sprintf("delay %d on %s", d.Samples, d.Port) }

func (d *Delay) isInstruction() {}

// ShiftPhase rotates the frame's carrier phase by Phase radians — a virtual
// Z rotation, instantaneous on hardware (pulse.shift_phase).
type ShiftPhase struct {
	Port  string
	Frame string
	Phase float64
}

// PortID implements Instruction.
func (s *ShiftPhase) PortID() string { return s.Port }

// Duration implements Instruction.
func (s *ShiftPhase) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (s *ShiftPhase) String() string {
	return fmt.Sprintf("shift_phase %.6g on %s/%s", s.Phase, s.Port, s.Frame)
}

func (s *ShiftPhase) isInstruction() {}

// SetPhase overrides the frame's carrier phase (pulse.set_phase).
type SetPhase struct {
	Port  string
	Frame string
	Phase float64
}

// PortID implements Instruction.
func (s *SetPhase) PortID() string { return s.Port }

// Duration implements Instruction.
func (s *SetPhase) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (s *SetPhase) String() string {
	return fmt.Sprintf("set_phase %.6g on %s/%s", s.Phase, s.Port, s.Frame)
}

func (s *SetPhase) isInstruction() {}

// ShiftFrequency detunes the frame's carrier by Hz (pulse.shift_frequency).
type ShiftFrequency struct {
	Port  string
	Frame string
	Hz    float64
}

// PortID implements Instruction.
func (s *ShiftFrequency) PortID() string { return s.Port }

// Duration implements Instruction.
func (s *ShiftFrequency) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (s *ShiftFrequency) String() string {
	return fmt.Sprintf("shift_frequency %.6g on %s/%s", s.Hz, s.Port, s.Frame)
}

func (s *ShiftFrequency) isInstruction() {}

// SetFrequency overrides the frame's carrier frequency (pulse.set_frequency).
type SetFrequency struct {
	Port  string
	Frame string
	Hz    float64
}

// PortID implements Instruction.
func (s *SetFrequency) PortID() string { return s.Port }

// Duration implements Instruction.
func (s *SetFrequency) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (s *SetFrequency) String() string {
	return fmt.Sprintf("set_frequency %.6g on %s/%s", s.Hz, s.Port, s.Frame)
}

func (s *SetFrequency) isInstruction() {}

// FrameChange is the paper's qFrameChange primitive (Listing 1): set both
// frequency and shift phase in one instruction.
type FrameChange struct {
	Port  string
	Frame string
	Hz    float64
	Phase float64
}

// PortID implements Instruction.
func (f *FrameChange) PortID() string { return f.Port }

// Duration implements Instruction.
func (f *FrameChange) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (f *FrameChange) String() string {
	return fmt.Sprintf("frame_change f=%.6g phi=%.6g on %s/%s", f.Hz, f.Phase, f.Port, f.Frame)
}

func (f *FrameChange) isInstruction() {}

// Barrier synchronizes the listed ports: no instruction after the barrier
// may start before every listed port has finished its prior work
// (pulse.barrier). An empty port list barriers every port in the schedule.
type Barrier struct {
	Ports []string
}

// PortID implements Instruction; barriers span ports, so it returns "".
func (b *Barrier) PortID() string { return "" }

// Duration implements Instruction.
func (b *Barrier) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (b *Barrier) String() string {
	if len(b.Ports) == 0 {
		return "barrier *"
	}
	return fmt.Sprintf("barrier %v", b.Ports)
}

func (b *Barrier) isInstruction() {}

// OutcomeBits is the number of classical bits a shot's outcome holds: the
// outcome is one 64-bit mask, so a Capture's Bit lies in [0, OutcomeBits).
const OutcomeBits = 64

// Capture acquires a readout signal from a port for DurationSamples and
// stores the discriminated bit into classical register Bit (pulse.capture).
type Capture struct {
	Port            string
	Frame           string
	Bit             int
	DurationSamples int64
}

// PortID implements Instruction.
func (c *Capture) PortID() string { return c.Port }

// Duration implements Instruction.
func (c *Capture) Duration(*Port) int64 { return c.DurationSamples }

// String implements Instruction.
func (c *Capture) String() string {
	return fmt.Sprintf("capture -> c[%d] on %s/%s (%d samples)", c.Bit, c.Port, c.Frame, c.DurationSamples)
}

func (c *Capture) isInstruction() {}
