package pulse

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Schedule is an ordered pulse program over a set of ports and frames. It is
// the in-memory form every stack layer shares: the QPI builder emits one,
// compiler passes transform it, and devices execute its scheduled form.
type Schedule struct {
	ports  map[string]*Port
	frames map[string]*Frame
	instrs []Instruction
}

// NewSchedule creates an empty schedule.
func NewSchedule() *Schedule {
	return &Schedule{ports: map[string]*Port{}, frames: map[string]*Frame{}}
}

// AddPort registers a port. Registering the same ID twice is an error.
func (s *Schedule) AddPort(p *Port) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := s.ports[p.ID]; dup {
		return fmt.Errorf("pulse: duplicate port %s", p.ID)
	}
	s.ports[p.ID] = p
	return nil
}

// AddFrame registers a frame.
func (s *Schedule) AddFrame(f *Frame) error {
	if f.ID == "" {
		return errors.New("pulse: frame with empty ID")
	}
	if _, dup := s.frames[f.ID]; dup {
		return fmt.Errorf("pulse: duplicate frame %s", f.ID)
	}
	s.frames[f.ID] = f
	return nil
}

// Port looks up a registered port.
func (s *Schedule) Port(id string) (*Port, bool) {
	p, ok := s.ports[id]
	return p, ok
}

// Ports returns the registered ports sorted by ID.
func (s *Schedule) Ports() []*Port {
	out := make([]*Port, 0, len(s.ports))
	for _, p := range s.ports {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Frames returns the registered frames sorted by ID.
func (s *Schedule) Frames() []*Frame {
	out := make([]*Frame, 0, len(s.frames))
	for _, f := range s.frames {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Append validates and appends an instruction.
func (s *Schedule) Append(in Instruction) error {
	switch v := in.(type) {
	case *Play:
		p, ok := s.ports[v.Port]
		if !ok {
			return fmt.Errorf("pulse: play on unknown port %s", v.Port)
		}
		if _, ok := s.frames[v.Frame]; !ok {
			return fmt.Errorf("pulse: play on unknown frame %s", v.Frame)
		}
		if v.Waveform == nil || v.Waveform.Len() == 0 {
			return errors.New("pulse: play with empty waveform")
		}
		if v.Waveform.PeakAmplitude() > p.MaxAmplitude+1e-12 {
			return fmt.Errorf("pulse: waveform %s peak %g exceeds port %s limit %g",
				v.Waveform.Name, v.Waveform.PeakAmplitude(), p.ID, p.MaxAmplitude)
		}
	case *Delay:
		if _, ok := s.ports[v.Port]; !ok {
			return fmt.Errorf("pulse: delay on unknown port %s", v.Port)
		}
		if v.Samples < 0 {
			return fmt.Errorf("pulse: negative delay %d", v.Samples)
		}
	case *FrameUpdate:
		if !v.Kind.Known() {
			return fmt.Errorf("pulse: unknown frame update kind %d", v.Kind)
		}
		if err := s.checkPortFrame(v.Port, v.Frame); err != nil {
			return err
		}
	case *Barrier:
		for _, id := range v.Ports {
			if _, ok := s.ports[id]; !ok {
				return fmt.Errorf("pulse: barrier on unknown port %s", id)
			}
		}
	case *Capture:
		if err := s.checkPortFrame(v.Port, v.Frame); err != nil {
			return err
		}
		if v.DurationSamples <= 0 {
			return fmt.Errorf("pulse: capture with non-positive duration %d", v.DurationSamples)
		}
		if v.Bit < 0 {
			return fmt.Errorf("pulse: capture into negative classical bit %d", v.Bit)
		}
		if v.Bit >= OutcomeBits {
			return fmt.Errorf("pulse: capture into classical bit %d beyond the %d-bit outcome", v.Bit, OutcomeBits)
		}
	default:
		return fmt.Errorf("pulse: unknown instruction type %T", in)
	}
	s.instrs = append(s.instrs, in)
	return nil
}

func (s *Schedule) checkPortFrame(port, frame string) error {
	if _, ok := s.ports[port]; !ok {
		return fmt.Errorf("pulse: instruction on unknown port %s", port)
	}
	if _, ok := s.frames[frame]; !ok {
		return fmt.Errorf("pulse: instruction on unknown frame %s", frame)
	}
	return nil
}

// Instructions returns the appended instructions in program order.
func (s *Schedule) Instructions() []Instruction { return s.instrs }

// Len returns the number of instructions.
func (s *Schedule) Len() int { return len(s.instrs) }

// String renders the program for debugging.
func (s *Schedule) String() string {
	var sb strings.Builder
	for _, p := range s.Ports() {
		fmt.Fprintf(&sb, "port %s kind=%s sites=%v rate=%.4g\n", p.ID, p.Kind, p.Sites, p.SampleRateHz)
	}
	for _, f := range s.Frames() {
		fmt.Fprintf(&sb, "frame %s freq=%.6g phase=%.4g\n", f.ID, f.FrequencyHz, f.PhaseRad)
	}
	for i, in := range s.instrs {
		fmt.Fprintf(&sb, "%3d: %s\n", i, in.String())
	}
	return sb.String()
}

// TimedInstruction is an instruction with a resolved start time.
type TimedInstruction struct {
	Start int64 // start sample tick (global clock)
	Instr Instruction
}

// ScheduledProgram is the result of timing resolution: every instruction has
// an explicit start tick, ports never overlap, and barriers are resolved.
type ScheduledProgram struct {
	Schedule *Schedule
	Timed    []TimedInstruction
	// PortEnd maps each port to the tick at which its last instruction ends.
	PortEnd map[string]int64
}

// Resolve assigns start times using ASAP (as-soon-as-possible) semantics:
// each port has a cursor; instructions start at their port's cursor; a
// barrier raises the cursors of all listed ports (all ports if unlisted) to
// their common maximum. Zero-duration frame operations keep the cursor.
func (s *Schedule) Resolve() (*ScheduledProgram, error) {
	cursor := make(map[string]int64, len(s.ports))
	for id := range s.ports {
		cursor[id] = 0
	}
	timed := make([]TimedInstruction, 0, len(s.instrs))
	for _, in := range s.instrs {
		switch v := in.(type) {
		case *Barrier:
			ids := v.Ports
			if len(ids) == 0 {
				ids = make([]string, 0, len(cursor))
				for id := range cursor {
					ids = append(ids, id)
				}
			}
			var mx int64
			for _, id := range ids {
				if cursor[id] > mx {
					mx = cursor[id]
				}
			}
			for _, id := range ids {
				cursor[id] = mx
			}
			timed = append(timed, TimedInstruction{Start: mx, Instr: in})
		default:
			pid := in.PortID()
			port := s.ports[pid]
			start := cursor[pid]
			dur := in.Duration(port)
			if play, ok := in.(*Play); ok {
				if err := port.CheckWaveformLen(play.Waveform.Len()); err != nil {
					return nil, err
				}
			}
			timed = append(timed, TimedInstruction{Start: start, Instr: in})
			cursor[pid] = start + dur
		}
	}
	// Stable sort by start time, preserving program order at equal ticks.
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].Start < timed[j].Start })
	return &ScheduledProgram{Schedule: s, Timed: timed, PortEnd: cursor}, nil
}

// TotalDuration returns the makespan in samples.
func (sp *ScheduledProgram) TotalDuration() int64 {
	var mx int64
	for _, end := range sp.PortEnd {
		if end > mx {
			mx = end
		}
	}
	return mx
}

// TotalDurationSeconds converts the makespan using each port's own sample
// clock (the slowest port dominates when rates differ).
func (sp *ScheduledProgram) TotalDurationSeconds() float64 {
	var mx float64
	for id, end := range sp.PortEnd {
		p := sp.Schedule.ports[id]
		if t := float64(end) * p.Dt(); t > mx {
			mx = t
		}
	}
	return mx
}
