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
// calibration callbacks. ends records, as it appends, which instructions
// each call became: m.Body[i] appended s.Instructions()[ends[i-1]:ends[i]]
// (from 0 for the first call).
func BuildSchedule(m *Module, b *DeviceBinding) (s *pulse.Schedule, ends []int, err error) {
	if err := m.Verify(); err != nil {
		return nil, nil, err
	}
	if len(b.Ports) < m.NumPorts {
		return nil, nil, fmt.Errorf("qir: device provides %d ports, module requires %d", len(b.Ports), m.NumPorts)
	}
	s = pulse.NewSchedule()
	frameOf := map[string]string{} // portID → frameID
	for _, p := range b.Ports {
		cp := *p
		cp.Sites = append([]int(nil), p.Sites...)
		if err := s.AddPort(&cp); err != nil {
			return nil, nil, err
		}
		f, err := b.FrameFor(p.ID)
		if err != nil {
			return nil, nil, fmt.Errorf("qir: no frame for port %s: %w", p.ID, err)
		}
		if err := s.AddFrame(f); err != nil {
			return nil, nil, err
		}
		frameOf[p.ID] = f.ID
	}
	portID := func(i int64) string { return b.Ports[i].ID }

	ends = make([]int, len(m.Body))
	for ci, c := range m.Body {
		kind, isFrame := frameKinds[c.Callee]
		switch {
		case isFrame:
			pid := portID(c.Args[0].I)
			hz, phase := FrameIntrinsics[kind].values(c)
			err = s.Append(&pulse.FrameUpdate{Port: pid, Frame: frameOf[pid], Kind: kind, Hz: hz, Phase: phase})
		case c.Callee == IntrWaveform:
			// Upload hint; waveform constants are already module-resident.
		case c.Callee == IntrPlay:
			wc, _ := m.FindWaveform(c.Args[1].Sym)
			w := &waveform.Waveform{Name: wc.Name, Samples: wc.Samples}
			if err = w.Check(); err == nil {
				pid := portID(c.Args[0].I)
				err = s.Append(&pulse.Play{Port: pid, Frame: frameOf[pid], Waveform: w})
			}
		case c.Callee == IntrDelay:
			err = s.Append(&pulse.Delay{Port: portID(c.Args[0].I), Samples: c.Args[1].I})
		case c.Callee == IntrBarrier:
			ids := make([]string, len(c.Args))
			for i, a := range c.Args {
				ids[i] = portID(a.I)
			}
			err = s.Append(&pulse.Barrier{Ports: ids})
		case c.Callee == IntrCapture:
			pid := portID(c.Args[0].I)
			err = s.Append(&pulse.Capture{Port: pid, Frame: frameOf[pid],
				Bit: int(c.Args[1].I), DurationSamples: c.Args[2].I})
		case c.Callee == IntrMz:
			if b.LowerMeasure == nil {
				return nil, nil, fmt.Errorf("qir: call %d: device cannot lower measurements", ci)
			}
			err = b.LowerMeasure(s, c.Args[0].I, c.Args[1].I)
		default:
			// Gate-level QIS intrinsic.
			gate, params, qubits := decodeGateCall(c)
			if gate == nil {
				return nil, nil, fmt.Errorf("qir: call %d: unsupported intrinsic %s", ci, c.Callee)
			}
			if b.LowerGate == nil {
				return nil, nil, fmt.Errorf("qir: call %d: device cannot lower gate %s", ci, gate.Name)
			}
			err = b.LowerGate(s, gate, params, qubits)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("qir: call %d (%s): %w", ci, c.Callee, err)
		}
		ends[ci] = s.Len()
	}
	return s, ends, nil
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
