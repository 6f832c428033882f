package qir

import (
	"fmt"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// DeviceBinding is what a QDMI device supplies at link time: the hardware
// port table, carrier frames, and calibration callbacks that resolve the
// module's declared-but-undefined intrinsics — the paper's "hardware-
// specific QDMI Device layer links these calls to the actual device APIs".
type DeviceBinding struct {
	// Ports maps QIR port handle indices to hardware ports.
	Ports []*pulse.Port
	// FrameFor returns the initial carrier frame for a port (fresh clone
	// per link so schedules do not share state).
	FrameFor func(portID string) (*pulse.Frame, error)
	// LowerGate appends the calibrated pulse implementation of a gate-level
	// QIS call — a row of the gate table — onto the schedule. Nil means gate
	// payloads are rejected.
	LowerGate func(s *pulse.Schedule, gate *waveform.Gate, params []float64, qubits []int64) error
	// LowerMeasure appends the calibrated readout of qubit q into classical
	// bit r. Nil means measurement calls are rejected.
	LowerMeasure func(s *pulse.Schedule, qubit, result int64) error
}

// BuildSchedule links a verified pulse-profile module against a device
// binding, producing an executable pulse schedule. Pulse intrinsics map
// 1:1 onto schedule instructions; gate intrinsics go through the device's
// calibration callbacks.
func BuildSchedule(m *Module, b *DeviceBinding) (*pulse.Schedule, error) {
	if err := m.Verify(); err != nil {
		return nil, err
	}
	if len(b.Ports) < m.NumPorts {
		return nil, fmt.Errorf("qir: device provides %d ports, module requires %d", len(b.Ports), m.NumPorts)
	}
	s := pulse.NewSchedule()
	frameOf := map[string]string{} // portID → frameID
	for _, p := range b.Ports {
		cp := *p
		cp.Sites = append([]int(nil), p.Sites...)
		if err := s.AddPort(&cp); err != nil {
			return nil, err
		}
		f, err := b.FrameFor(p.ID)
		if err != nil {
			return nil, fmt.Errorf("qir: no frame for port %s: %w", p.ID, err)
		}
		if err := s.AddFrame(f); err != nil {
			return nil, err
		}
		frameOf[p.ID] = f.ID
	}
	portID := func(i int64) string { return b.Ports[i].ID }

	for ci, c := range m.Body {
		var err error
		switch c.Callee {
		case IntrWaveform:
			// Upload hint; waveform constants are already module-resident.
		case IntrPlay:
			wc, _ := m.FindWaveform(c.Args[1].Sym)
			var w *waveform.Waveform
			w, err = waveform.New(wc.Name, wc.Samples)
			if err == nil {
				pid := portID(c.Args[0].I)
				err = s.Append(&pulse.Play{Port: pid, Frame: frameOf[pid], Waveform: w})
			}
		case IntrFrameChange:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.FrameChange{Port: pid, Frame: frameOf[pid],
				Hz: c.Args[1].F, Phase: c.Args[2].F})
		case IntrShiftPhase:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.ShiftPhase{Port: pid, Frame: frameOf[pid], Phase: c.Args[1].F})
		case IntrSetPhase:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.SetPhase{Port: pid, Frame: frameOf[pid], Phase: c.Args[1].F})
		case IntrShiftFrequency:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.ShiftFrequency{Port: pid, Frame: frameOf[pid], Hz: c.Args[1].F})
		case IntrSetFrequency:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.SetFrequency{Port: pid, Frame: frameOf[pid], Hz: c.Args[1].F})
		case IntrDelay:
			err = s.Append(&pulse.Delay{Port: portID(c.Args[0].I), Samples: c.Args[1].I})
		case IntrBarrier:
			ids := make([]string, len(c.Args))
			for i, a := range c.Args {
				ids[i] = portID(a.I)
			}
			err = s.Append(&pulse.Barrier{Ports: ids})
		case IntrCapture:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.Capture{Port: pid, Frame: frameOf[pid],
				Bit: int(c.Args[1].I), DurationSamples: c.Args[2].I})
		case IntrMz:
			if b.LowerMeasure == nil {
				return nil, fmt.Errorf("qir: call %d: device cannot lower measurements", ci)
			}
			err = b.LowerMeasure(s, c.Args[0].I, c.Args[1].I)
		default:
			// Gate-level QIS intrinsic.
			gate, params, qubits := decodeGateCall(c)
			if gate == nil {
				return nil, fmt.Errorf("qir: call %d: unsupported intrinsic %s", ci, c.Callee)
			}
			if b.LowerGate == nil {
				return nil, fmt.Errorf("qir: call %d: device cannot lower gate %s", ci, gate.Name)
			}
			err = b.LowerGate(s, gate, params, qubits)
		}
		if err != nil {
			return nil, fmt.Errorf("qir: call %d (%s): %w", ci, c.Callee, err)
		}
	}
	return s, nil
}

// decodeGateCall maps a QIS call back to (gate table row, angles, qubits);
// the row is nil for a callee that is no gate's.
func decodeGateCall(c Call) (gate *waveform.Gate, params []float64, qubits []int64) {
	if gate = waveform.GateByQIS(c.Callee); gate == nil {
		return nil, nil, nil
	}
	for _, a := range c.Args {
		switch a.Kind {
		case ArgF64:
			params = append(params, a.F)
		case ArgQubit:
			qubits = append(qubits, a.I)
		}
	}
	return gate, params, qubits
}
