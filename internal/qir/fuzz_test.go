package qir

import "testing"

// fuzzSeeds is FuzzParseModule's seed corpus, shared with the emitter's
// reference test.
func fuzzSeeds() []string {
	valid := &Module{
		ID: "seed", Profile: ProfilePulse, EntryName: "main",
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{"q0-drive", "q0-readout"},
		Waveforms: []WaveformConst{{Name: "wf", Samples: []complex128{0.5, complex(0.1, -0.2)}}},
		Body: []Call{
			{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("wf")}},
			{Callee: IntrBarrier, Args: []Arg{PortArg(0), PortArg(1)}},
			{Callee: IntrCapture, Args: []Arg{PortArg(1), ResultArg(0), I64Arg(96)}},
		},
	}
	return []string{
		string(valid.Emit()),
		"define void @empty() #0 {\nentry:\n  ret void\n}\n",
		"; ModuleID = 'x'\n@w = private constant [2 x double] [double 1, double 0]\ndefine void @m() {\nentry:\n}\n",
		"garbage",
	}
}

// FuzzParseModule exercises the textual QIR parser with arbitrary input:
// whatever it accepts must survive an Emit → ParseModule round trip with
// its structural fields intact.
func FuzzParseModule(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src)
		if err != nil {
			return
		}
		again, err := ParseModule(string(m.Emit()))
		if err != nil {
			t.Fatalf("re-parse of emitted module failed: %v\nemitted:\n%s", err, m.Emit())
		}
		if again.EntryName != m.EntryName || again.Profile != m.Profile ||
			again.NumQubits != m.NumQubits || again.NumResults != m.NumResults ||
			again.NumPorts != m.NumPorts ||
			len(again.Body) != len(m.Body) || len(again.Waveforms) != len(m.Waveforms) ||
			len(again.PortNames) != len(m.PortNames) {
			t.Fatalf("round trip changed module structure:\nfirst:  %+v\nsecond: %+v", m, again)
		}
	})
}
