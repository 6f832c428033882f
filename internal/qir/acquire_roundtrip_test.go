package qir

import (
	"reflect"
	"testing"
)

// TestAcquisitionPayloadRoundTrip pins the wire form of the acquisition
// primitive: a pulse-profile module whose body opens explicit capture
// windows must survive Emit → ParseModule exactly — callee, port/result
// handles, and window lengths included — since devices parse this payload
// to schedule their digitizers.
func TestAcquisitionPayloadRoundTrip(t *testing.T) {
	m := &Module{
		ID: "acq", Profile: ProfilePulse, EntryName: "acq",
		NumQubits: 0, NumResults: 2, NumPorts: 3,
		PortNames: []string{"q0-drive", "q0-readout", "q1-readout"},
		Waveforms: []WaveformConst{
			{Name: "stim", Samples: []complex128{complex(0.25, 0.1), complex(-0.5, 0), 0.125}},
		},
		Body: []Call{
			{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("stim"), F64Arg(1)}},
			{Callee: IntrBarrier, Args: []Arg{PortArg(0), PortArg(1), PortArg(2)}},
			{Callee: IntrCapture, Args: []Arg{PortArg(1), ResultArg(0), I64Arg(96)}},
			{Callee: IntrCapture, Args: []Arg{PortArg(2), ResultArg(1), I64Arg(4000)}},
		},
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("seed module invalid: %v", err)
	}
	parsed, err := ParseModule(string(m.Emit()))
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	if err := parsed.Verify(); err != nil {
		t.Fatalf("parsed module invalid: %v", err)
	}
	if !reflect.DeepEqual(parsed.Body, m.Body) {
		t.Fatalf("body changed in round trip:\nwant %+v\ngot  %+v", m.Body, parsed.Body)
	}
	if !reflect.DeepEqual(parsed.PortNames, m.PortNames) {
		t.Fatalf("port names changed: want %v got %v", m.PortNames, parsed.PortNames)
	}
	if !reflect.DeepEqual(parsed.Waveforms, m.Waveforms) {
		t.Fatalf("waveform constants changed")
	}
	if parsed.NumResults != 2 || parsed.NumPorts != 3 || parsed.Profile != ProfilePulse {
		t.Fatalf("attributes changed: %+v", parsed)
	}
	// The capture windows specifically must be preserved verbatim.
	var windows []int64
	for _, c := range parsed.Body {
		if c.Callee == IntrCapture {
			windows = append(windows, c.Args[2].I)
		}
	}
	if len(windows) != 2 || windows[0] != 96 || windows[1] != 4000 {
		t.Fatalf("capture windows changed: %v", windows)
	}
}
