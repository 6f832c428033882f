package qir

import (
	"fmt"
	"math"

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
//
// A template links at a point, pt, numbered as BindSlots numbers it: the
// link writes each value where its slot sits and returns which play or frame
// update each index of pt feeds, so a program prepared from the schedule can
// take later points in place. A concrete module takes a nil point and gets
// no slots.
func BuildSchedule(m *Module, b *DeviceBinding, pt *pulse.Binding) (s *pulse.Schedule, slots map[pulse.Instruction]pulse.Slot, err error) {
	if err := m.Verify(); err != nil {
		return nil, nil, err
	}
	if err := m.checkPoint(pt); err != nil {
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
	if pt != nil {
		slots = map[pulse.Instruction]pulse.Slot{}
	}

	next := 0   // index in pt.Values of the next argument slot
	played := 0 // index in pt.Samples of the next play slot
	var buf [4]shape
	shapes := buf[:0]
	for ci, c := range m.Body {
		first := next
		if pt != nil {
			c, next = c.at(pt.Values, next)
		}
		kind, isFrame := frameKinds[c.Callee]
		switch {
		case isFrame:
			pid := portID(c.Args[0].I)
			fi := FrameIntrinsics[kind]
			hz, phase := fi.values(c)
			in := &pulse.FrameUpdate{Port: pid, Frame: frameOf[pid], Kind: kind, Hz: hz, Phase: phase}
			if hzAt, phaseAt := slotIndex(m.Body[ci], first, fi.Hz), slotIndex(m.Body[ci], first, fi.Phase); hzAt >= 0 || phaseAt >= 0 {
				slots[in] = pulse.Slot{Samples: -1, Hz: hzAt, Phase: phaseAt}
			}
			err = s.Append(in)
		case c.Callee == IntrWaveform:
			// Upload hint; waveform constants are already module-resident.
		case c.Callee == IntrPlay:
			wc, _ := m.FindWaveform(c.Args[1].Sym)
			pid := portID(c.Args[0].I)
			in := &pulse.Play{Port: pid, Frame: frameOf[pid]}
			if m.Body[ci].playSlot() {
				// The point's samples: its own, since each point rebinds them.
				in.Waveform = &waveform.Waveform{Name: wc.Name, Samples: pt.Samples[played]}
				slots[in] = pulse.Slot{Samples: played, Hz: -1, Phase: -1}
				played++
				err = in.Waveform.Check()
			} else {
				in.Waveform, shapes, err = shapeOf(shapes, wc, c.Args[2].F)
			}
			if err == nil {
				err = s.Append(in)
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
	}
	return s, slots, nil
}

// slotIndex returns the index in a point's values of c's argument ai, c's
// first slot being value first; -1 for a literal.
func slotIndex(c Call, first, ai int) int {
	if c.Args[ai].Expr == nil {
		return -1
	}
	return first + countSlots(c.Args[:ai])
}

// shape is the waveform the plays of constant w by factor f share.
type shape struct {
	w  *WaveformConst
	f  uint64 // the factor's bits: -0 scales to other samples than 0
	wf *waveform.Waveform
}

// shapeOf returns the waveform a play of w by factor f plays, built at the
// first such play a link meets and added to shapes: w's own samples at
// factor 1, else w scaled as waveform.Waveform.Scale scales, within full
// scale.
func shapeOf(shapes []shape, w *WaveformConst, f float64) (*waveform.Waveform, []shape, error) {
	bits := math.Float64bits(f)
	for _, sh := range shapes {
		if sh.w == w && sh.f == bits {
			return sh.wf, shapes, nil
		}
	}
	wf := &waveform.Waveform{Name: w.Name, Samples: w.Samples}
	var err error
	if f == 1 {
		err = wf.Check()
	} else {
		wf.Samples, err = scaled(w, f)
	}
	if err != nil {
		return nil, shapes, err
	}
	return wf, append(shapes, shape{w: w, f: bits, wf: wf}), nil
}

// checkPoint checks that pt is a point of m, as BindSlots evaluates one:
// nil or empty for a concrete module, else one sample set per play whose
// factor is a slot and one value, finite as Verify wants a bound double, per
// argument slot.
func (m *Module) checkPoint(pt *pulse.Binding) error {
	if pt == nil {
		pt = &pulse.Binding{}
	}
	if samples, values := m.slotCounts(); len(pt.Samples) != samples || len(pt.Values) != values {
		return fmt.Errorf("qir: module %q has %d play and %d argument slots, its point %d sample sets and %d values",
			m.ID, samples, values, len(pt.Samples), len(pt.Values))
	}
	for i, v := range pt.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qir: point value %d is %g, not finite", i, v)
		}
	}
	return nil
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
