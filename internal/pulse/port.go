// Package pulse implements the paper's three pulse-level abstractions
// (Section 4): ports (hardware I/O channels), frames (stateful timing and
// carrier signal context), and the schedule of timed instructions that plays
// waveforms on them.
//
// A frame update is one instruction, FrameUpdate, whose FrameKind is one of
// the dialect's five frame ops (shift_phase, set_phase, shift_frequency,
// set_frequency, frame_change); what each kind does to a Frame is written
// once, in Frame.Apply.
package pulse

import (
	"errors"
	"fmt"
)

// PortKind classifies what a hardware channel actuates. The set mirrors the
// channel taxonomy the paper's Listing 1 uses (qubit drive ports, coupler
// ports) plus readout/acquire channels needed for measurement.
type PortKind int

// Port kinds.
const (
	PortDrive   PortKind = iota // microwave/laser drive of a single site
	PortCoupler                 // two-site coupling channel (entangling pulses)
	PortReadout                 // readout stimulus channel
	PortAcquire                 // acquisition (capture) channel
	PortFlux                    // DC/fast-flux bias channel
	PortGlobal                  // global beam (e.g. neutral-atom Rydberg laser)
)

// String implements fmt.Stringer.
func (k PortKind) String() string {
	switch k {
	case PortDrive:
		return "drive"
	case PortCoupler:
		return "coupler"
	case PortReadout:
		return "readout"
	case PortAcquire:
		return "acquire"
	case PortFlux:
		return "flux"
	case PortGlobal:
		return "global"
	default:
		return fmt.Sprintf("PortKind(%d)", int(k))
	}
}

// Port is a software representation of a hardware input/output channel used
// to manipulate or read out qubits. It exposes vendor-defined actuation
// knobs while abstracting device-specific complexity (paper, Section 4).
type Port struct {
	// ID is the vendor-assigned channel name, e.g. "q0-drive-port".
	ID string
	// Kind classifies the channel.
	Kind PortKind
	// Sites lists the device site indices this port actuates (one for
	// drive/readout, two for couplers, all for global beams).
	Sites []int
	// SampleRateHz is the DAC/AWG sample clock of this channel.
	SampleRateHz float64
	// Granularity is the required sample-count multiple for waveforms
	// played on this port (hardware memory alignment).
	Granularity int
	// MinSamples is the shortest playable waveform.
	MinSamples int
	// MaxSamples is the longest playable waveform (0 = unlimited).
	MaxSamples int
	// MaxAmplitude is the full-scale output limit (≤ 1.0).
	MaxAmplitude float64
}

// Validate checks internal consistency of the port description.
func (p *Port) Validate() error {
	switch {
	case p.ID == "":
		return errors.New("pulse: port with empty ID")
	case len(p.Sites) == 0:
		return fmt.Errorf("pulse: port %s has no sites", p.ID)
	case p.SampleRateHz <= 0:
		return fmt.Errorf("pulse: port %s has non-positive sample rate", p.ID)
	case p.Granularity < 0:
		return fmt.Errorf("pulse: port %s has negative granularity", p.ID)
	case p.MaxAmplitude <= 0 || p.MaxAmplitude > 1:
		return fmt.Errorf("pulse: port %s has max amplitude %g outside (0, 1]", p.ID, p.MaxAmplitude)
	case p.MaxSamples != 0 && p.MaxSamples < p.MinSamples:
		return fmt.Errorf("pulse: port %s has max samples < min samples", p.ID)
	}
	return nil
}

// Dt returns the sample period in seconds.
func (p *Port) Dt() float64 { return 1 / p.SampleRateHz }

// CheckWaveformLen verifies that a waveform of n samples is playable on this
// port under its granularity and length constraints.
func (p *Port) CheckWaveformLen(n int) error {
	if n < p.MinSamples {
		return fmt.Errorf("pulse: waveform of %d samples below port %s minimum %d", n, p.ID, p.MinSamples)
	}
	if p.MaxSamples != 0 && n > p.MaxSamples {
		return fmt.Errorf("pulse: waveform of %d samples above port %s maximum %d", n, p.ID, p.MaxSamples)
	}
	if p.Granularity > 1 && n%p.Granularity != 0 {
		return fmt.Errorf("pulse: waveform of %d samples violates port %s granularity %d", n, p.ID, p.Granularity)
	}
	return nil
}
