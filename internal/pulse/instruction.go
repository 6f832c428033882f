package pulse

import (
	"fmt"

	"mqsspulse/internal/waveform"
)

// Instruction is one timed pulse-level operation. The set mirrors the
// paper's MLIR pulse dialect (Section 5.2): play, delay, barrier, frame
// update (FrameUpdate: shift/set phase, shift/set frequency, frame change),
// and capture.
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

// FrameUpdate changes the carrier of a port's frame in zero time, as Kind
// says (Frame.Apply): pulse.shift_phase, set_phase, shift_frequency,
// set_frequency or frame_change. A kind ignores the value it does not read
// (FrameKind.Reads). A phase shift is a virtual Z rotation, instantaneous
// on hardware; a frame change is the paper's qFrameChange (Listing 1).
type FrameUpdate struct {
	Port  string
	Frame string
	Kind  FrameKind
	Hz    float64
	Phase float64
}

// PortID implements Instruction.
func (u *FrameUpdate) PortID() string { return u.Port }

// Duration implements Instruction.
func (u *FrameUpdate) Duration(*Port) int64 { return 0 }

// String implements Instruction.
func (u *FrameUpdate) String() string {
	if u.Kind == FrameChange {
		return fmt.Sprintf("frame_change f=%.6g phi=%.6g on %s/%s", u.Hz, u.Phase, u.Port, u.Frame)
	}
	v := u.Phase
	if hz, _ := u.Kind.Reads(); hz {
		v = u.Hz
	}
	return fmt.Sprintf("%s %.6g on %s/%s", u.Kind, v, u.Port, u.Frame)
}

func (u *FrameUpdate) isInstruction() {}

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

// Binding is one point of a template: its slots' values, numbered as the
// exchange format's link numbers them. Values holds the value of each
// argument slot, Samples the bound sample set of each play whose factor is
// one of them.
type Binding struct {
	Samples [][]complex128
	Values  []float64
}

// Slot marks an instruction of a template's schedule whose value each point
// binds anew: Samples indexes the Binding.Samples a play takes its samples
// from, Hz and Phase the Binding.Values a frame update takes its frequency
// and phase from. -1 marks a field the instruction keeps. No slot moves a
// duration, so a template's timing holds at every point.
type Slot struct{ Samples, Hz, Phase int }
