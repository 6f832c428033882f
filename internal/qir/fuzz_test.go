package qir

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeeds is FuzzParseModule's seed corpus, shared with the emitter's
// reference test.
func fuzzSeeds() []string {
	valid := &Module{
		ID: "seed", Profile: ProfilePulse, EntryName: "main",
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{"q0-drive", "q0-readout"},
		Waveforms: []WaveformConst{{Name: "wf", Samples: []complex128{0.5, complex(0.1, -0.2)}}},
		Body: []Call{
			{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("wf"), F64Arg(1)}},
			{Callee: IntrBarrier, Args: []Arg{PortArg(0), PortArg(1)}},
			{Callee: IntrCapture, Args: []Arg{PortArg(1), ResultArg(0), I64Arg(96)}},
		},
	}
	seeds := []string{
		string(valid.Emit()),
		"define void @empty() #0 {\nentry:\n  ret void\n}\n",
		"; ModuleID = 'x'\n@w = private constant [2 x double] [double 1, double 0]\ndefine void @m() {\nentry:\n}\n",
		"garbage",
		// A double that is not a number: parsed, and refused by Verify.
		"define void @m() #0 {\nentry:\n  call void @__quantum__qis__rz__body(double NaN, %Qubit* inttoptr (i64 0 to %Qubit*))\n}\n" +
			"attributes #0 = { \"qir_profiles\"=\"base\" \"required_num_qubits\"=\"1\" }\n",
		// Templates: slots on a double, a play's factor among them, and on an
		// i64; and a play by a literal factor.
		string(parametricModule().Emit()),
		"@w = private constant [2 x double] [double 1, double 0]\n" +
			"define void @m() #0 {\n  call void @__quantum__pulse__waveform_play__body(%Port* inttoptr (i64 0 to %Port*), %Waveform* @w, double param(\"a, (b\", -0.5, 1e-3))\n" +
			"  call void @__quantum__pulse__delay__body(%Port* inttoptr (i64 0 to %Port*), i64 param(`dt`, 1, 0))\n}\n",
		"@w = private constant [2 x double] [double 1, double 0]\n" +
			"define void @m() #0 {\n  call void @__quantum__pulse__waveform_play__body(%Port* inttoptr (i64 0 to %Port*), %Waveform* @w, double -0.5)\n}\n" +
			"attributes #0 = { \"qir_profiles\"=\"pulse\" \"required_num_ports\"=\"1\" }\n",
	}
	// Every frame update, with literal values and with slots for them.
	for _, fi := range FrameIntrinsics {
		hz, phase := F64Arg(5.1e9), F64Arg(0.25)
		m := &Module{ID: "frame", Profile: ProfilePulse, EntryName: "frame", NumPorts: 1,
			PortNames: []string{"q0-drive"}, Body: []Call{fi.Call(PortArg(0), hz, phase)}}
		seeds = append(seeds, string(m.Emit()))
		hz.Expr, phase.Expr = &ParamExpr{Param: "df", Scale: 1, Offset: 5e9}, &ParamExpr{Param: "phi", Scale: -2}
		m.Body = []Call{fi.Call(PortArg(0), hz, phase)}
		seeds = append(seeds, string(m.Emit()))
	}
	return seeds
}

// FuzzParseModule exercises the textual QIR parser with arbitrary input:
// whatever it accepts must survive an Emit → ParseModule round trip with
// its structural fields intact, and the emitted text must be a fixed point
// of Emit∘ParseModule — the canonical form of a program, template or not.
// A module that also verifies carries only finite doubles.
func FuzzParseModule(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src)
		if err != nil {
			return
		}
		if m.Verify() == nil {
			for _, c := range m.Body {
				for _, a := range c.Args {
					if a.Kind == ArgF64 && a.Expr == nil && (math.IsNaN(a.F) || math.IsInf(a.F, 0)) {
						t.Fatalf("verified module passes double %g to %s", a.F, c.Callee)
					}
				}
			}
		}
		text := m.Emit()
		again, err := ParseModule(string(text))
		if err != nil {
			t.Fatalf("re-parse of emitted module failed: %v\nemitted:\n%s", err, text)
		}
		if second := again.Emit(); !bytes.Equal(second, text) {
			t.Fatalf("emitted text is not a fixed point\nfirst:\n%s\nsecond:\n%s", text, second)
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
