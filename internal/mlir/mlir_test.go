package mlir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mqsspulse/internal/waveform"
)

// listing2Module reconstructs the paper's Listing 2 kernel: three waveforms,
// gate-level X ops, plays, frame changes, an entangling pulse, and captures.
func listing2Module() *Module {
	amps := []complex128{0.1, 0.4, 0.8, 0.4, 0.1}
	sampled := func(name string, e waveform.Envelope, n int) *WaveformDef {
		w, err := e.Materialize(name, n)
		if err != nil {
			panic(err)
		}
		return &WaveformDef{Name: name, Waveform: w, Envelope: e}
	}
	m := &Module{
		WaveformDefs: []*WaveformDef{
			{Name: "waveform_1", Waveform: &waveform.Waveform{Name: "waveform_1", Samples: amps}},
			{Name: "waveform_2", Waveform: &waveform.Waveform{Name: "waveform_2", Samples: amps}},
			sampled("waveform_3", waveform.GaussianSquare{Amplitude: 0.5, RiseFrac: 0.2}, 64),
			sampled("readout_pulse", waveform.Constant{Amplitude: 0.2}, 128),
		},
	}
	seq := &Sequence{
		Name: "pulse_vqe_quantum_kernel",
		Args: []Arg{
			{Name: "drive0", Type: TypeMixedFrame},
			{Name: "drive1", Type: TypeMixedFrame},
			{Name: "coupler", Type: TypeMixedFrame},
			{Name: "readout0", Type: TypeMixedFrame},
			{Name: "readout1", Type: TypeMixedFrame},
			{Name: "freq", Type: TypeF64},
			{Name: "phase", Type: TypeF64},
		},
		ArgPorts: []string{"q0-drive-port", "q1-drive-port", "q0q1-coupler-port",
			"q0-readout-port", "q1-readout-port", "", ""},
		Results: []Type{TypeI1, TypeI1},
	}
	seq.Ops = []Op{
		&StandardGateOp{Gate: "x", Frames: []Value{Ref("drive0")}},
		&StandardGateOp{Gate: "x", Frames: []Value{Ref("drive1")}},
		&WaveformRefOp{Result: "wf1", Waveform: "waveform_1"},
		&WaveformRefOp{Result: "wf2", Waveform: "waveform_2"},
		&WaveformRefOp{Result: "wf3", Waveform: "waveform_3"},
		&PlayOp{Frame: Ref("drive0"), Waveform: Ref("wf1")},
		&PlayOp{Frame: Ref("drive1"), Waveform: Ref("wf2")},
		&FrameChangeOp{Frame: Ref("drive0"), Freq: Ref("freq"), Phase: Ref("phase")},
		&FrameChangeOp{Frame: Ref("drive1"), Freq: Ref("freq"), Phase: Ref("phase")},
		&PlayOp{Frame: Ref("coupler"), Waveform: Ref("wf3")},
		&BarrierOp{},
		&WaveformRefOp{Result: "wfr", Waveform: "readout_pulse"},
		&PlayOp{Frame: Ref("readout0"), Waveform: Ref("wfr")},
		&CaptureOp{Result: "m0", Frame: Ref("readout0"), Samples: 128},
		&PlayOp{Frame: Ref("readout1"), Waveform: Ref("wfr")},
		&CaptureOp{Result: "m1", Frame: Ref("readout1"), Samples: 128},
		&ReturnOp{Values: []Value{Ref("m0"), Ref("m1")}},
	}
	m.Sequences = append(m.Sequences, seq)
	return m
}

func TestListing2Verifies(t *testing.T) {
	m := listing2Module()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.OpCount() != 17 {
		t.Fatalf("op count = %d, want 17", m.OpCount())
	}
}

func TestPrintParseRoundtrip(t *testing.T) {
	m := listing2Module()
	text := m.Print()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, text)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	// Structural equality via re-print.
	if back.Print() != text {
		t.Fatalf("roundtrip not stable:\n--- first\n%s\n--- second\n%s", text, back.Print())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"module {",
		"module { pulse.def }",
		"module { banana }",
		"module { pulse.sequence @s( { } }",
		`module { pulse.sequence @s(%f: !pulse.nope) { pulse.return } }`,
		`module { pulse.sequence @s() { pulse.playy() pulse.return } }`,
		// Truncated input once read past the token slice and panicked.
		"module{pulse.def",
		"module { pulse.sequence @s",
		"module { pulse.def @w samples = [(0.1, 0)",
		// A kind def is sampled as it is read, so its length is bounded.
		`module { pulse.def @c kind = "constant" length = 99999999999 params = {amplitude = 0.5} }`,
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d parsed successfully", i)
		}
	}
}

// TestKindDefNamesExactParams: a `kind = …` def is sampled from exactly the
// envelope's parameters. A misspelt name or a missing one is ErrBadParam, not
// an envelope with that parameter zero (all-zero samples for a constant with
// "amp", β = 0 for a drag with "bta").
func TestKindDefNamesExactParams(t *testing.T) {
	def := func(kind, params string) string {
		return fmt.Sprintf(`module { pulse.def @g kind = %q length = 16 params = {%s} }`, kind, params)
	}
	for _, src := range []string{
		def("constant", "amp = 0.5"),
		def("drag", "amplitude = 0.5, sigma_frac = 0.2, bta = 3"),
		def("drag", "amplitude = 0.5, sigma_frac = 0.2"),
		def("gaussian", "amplitude = 0.5, sigma_frac = 0.2, beta = 1"),
	} {
		m, err := Parse(src)
		if err == nil {
			err = m.Verify()
		}
		if !errors.Is(err, waveform.ErrBadParam) {
			t.Errorf("%s: got %v, want ErrBadParam", src, err)
		}
	}
	m, err := Parse(def("drag", "amplitude = 0.5, sigma_frac = 0.2, beta = 3"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := waveform.DRAG{Amplitude: 0.5, SigmaFrac: 0.2, Beta: 3}.Materialize("g", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil || !m.WaveformDefs[0].Waveform.Equal(want, 0) {
		t.Fatalf("drag def: %v, samples %v, want %v", err, m.WaveformDefs[0].Waveform.Samples, want.Samples)
	}
}

func TestParseScientificNotation(t *testing.T) {
	src := `module {
  pulse.sequence @s(%f0: !pulse.mixed_frame) {
    pulse.frame_change(%f0, freq = 5.1e+09, phase = -0.25)
    pulse.set_frequency(%f0, 4.8e9)
    pulse.return
  }
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Sequences[0].Ops[0].(*FrameChangeOp)
	if fc.Freq.Lit != 5.1e9 || fc.Phase.Lit != -0.25 {
		t.Fatalf("parsed freq=%g phase=%g", fc.Freq.Lit, fc.Phase.Lit)
	}
	sf := m.Sequences[0].Ops[1].(*SetFrequencyOp)
	if sf.Freq.Lit != 4.8e9 {
		t.Fatalf("parsed set_frequency %g", sf.Freq.Lit)
	}
}

func TestParseComments(t *testing.T) {
	src := `module {
  // a comment
  pulse.sequence @s(%f0: !pulse.mixed_frame) { // trailing
    pulse.delay(%f0, 16)
    pulse.return
  }
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sequences[0].Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(m.Sequences[0].Ops))
	}
}

func TestParseGateParams(t *testing.T) {
	src := `module {
  pulse.sequence @s(%f0: !pulse.mixed_frame) {
    pulse.standard_rx(%f0) {params = [1.5707963]}
    pulse.return
  }
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Sequences[0].Ops[0].(*StandardGateOp)
	if g.Gate != "rx" || len(g.Params) != 1 {
		t.Fatalf("gate %q params %v", g.Gate, g.Params)
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	mk := func(mutate func(*Module)) error {
		m := listing2Module()
		mutate(m)
		return m.Verify()
	}
	cases := []struct {
		name   string
		mutate func(*Module)
	}{
		{"dup waveform", func(m *Module) {
			m.WaveformDefs = append(m.WaveformDefs, &WaveformDef{Name: "waveform_1",
				Waveform: &waveform.Waveform{Name: "w", Samples: []complex128{0.1}}})
		}},
		{"empty waveform name", func(m *Module) {
			m.WaveformDefs[0].Name = ""
		}},
		{"waveform without samples", func(m *Module) {
			m.WaveformDefs[0].Waveform = nil
		}},
		{"empty waveform", func(m *Module) {
			m.WaveformDefs[0].Waveform = &waveform.Waveform{Name: "w"}
		}},
		{"waveform above full scale", func(m *Module) {
			m.WaveformDefs[0].Waveform = &waveform.Waveform{Name: "w", Samples: []complex128{0.5, 1.5}}
		}},
		{"dup sequence", func(m *Module) {
			m.Sequences = append(m.Sequences, m.Sequences[0])
		}},
		{"argports mismatch", func(m *Module) {
			m.Sequences[0].ArgPorts = m.Sequences[0].ArgPorts[:3]
		}},
		{"frame without port", func(m *Module) {
			m.Sequences[0].ArgPorts[0] = ""
		}},
		{"scalar with port", func(m *Module) {
			m.Sequences[0].ArgPorts[5] = "oops"
		}},
		{"undefined frame", func(m *Module) {
			m.Sequences[0].Ops[0] = &StandardGateOp{Gate: "x", Frames: []Value{Ref("ghost")}}
		}},
		{"play of non-waveform", func(m *Module) {
			m.Sequences[0].Ops[5] = &PlayOp{Frame: Ref("drive0"), Waveform: Ref("freq")}
		}},
		{"undefined waveform def", func(m *Module) {
			m.Sequences[0].Ops[2] = &WaveformRefOp{Result: "wf1", Waveform: "ghost"}
		}},
		{"f64 op on frame value", func(m *Module) {
			m.Sequences[0].Ops[7] = &FrameChangeOp{Frame: Ref("drive0"), Freq: Ref("drive1"), Phase: Lit(0)}
		}},
		{"negative delay", func(m *Module) {
			m.Sequences[0].Ops[10] = &DelayOp{Frame: Ref("drive0"), Samples: -5}
		}},
		{"capture redefines", func(m *Module) {
			m.Sequences[0].Ops[13] = &CaptureOp{Result: "wf1", Frame: Ref("readout0"), Samples: 8}
		}},
		{"zero capture window", func(m *Module) {
			m.Sequences[0].Ops[13] = &CaptureOp{Result: "m0", Frame: Ref("readout0"), Samples: 0}
		}},
		{"return arity", func(m *Module) {
			m.Sequences[0].Ops[16] = &ReturnOp{Values: []Value{Ref("m0")}}
		}},
		{"return wrong type", func(m *Module) {
			m.Sequences[0].Ops[16] = &ReturnOp{Values: []Value{Ref("m0"), Ref("freq")}}
		}},
		{"op after return", func(m *Module) {
			m.Sequences[0].Ops = append(m.Sequences[0].Ops, &BarrierOp{})
		}},
		{"missing return", func(m *Module) {
			m.Sequences[0].Ops = m.Sequences[0].Ops[:16]
		}},
		{"gate no frames", func(m *Module) {
			m.Sequences[0].Ops[0] = &StandardGateOp{Gate: "x"}
		}},
	}
	for _, tc := range cases {
		if err := mk(tc.mutate); err == nil {
			t.Errorf("%s: verify accepted invalid module", tc.name)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for _, ty := range []Type{TypeMixedFrame, TypeF64, TypeI1, TypeWaveform} {
		if ty.String() == "" {
			t.Errorf("type %d has empty string", int(ty))
		}
	}
	if _, err := ParseType("!pulse.waveform"); err == nil {
		t.Error("waveform type must not be parseable as an arg type")
	}
	for _, s := range []string{"!pulse.mixed_frame", "f64", "i1"} {
		ty, err := ParseType(s)
		if err != nil {
			t.Fatal(err)
		}
		if ty.String() != s {
			t.Errorf("type %q roundtrip gave %q", s, ty.String())
		}
	}
}

func TestValueString(t *testing.T) {
	if Ref("x").String() != "%x" {
		t.Error("ref rendering")
	}
	if Lit(2.5).String() != "2.5" {
		t.Error("literal rendering")
	}
}

func TestOpRenderAll(t *testing.T) {
	ops := []Op{
		&StandardGateOp{Gate: "rx", Frames: []Value{Ref("f")}, Params: []float64{0.5}},
		&WaveformRefOp{Result: "w", Waveform: "def"},
		&PlayOp{Frame: Ref("f"), Waveform: Ref("w")},
		&FrameChangeOp{Frame: Ref("f"), Freq: Lit(5e9), Phase: Lit(0.1)},
		&ShiftPhaseOp{Frame: Ref("f"), Phase: Lit(0.2)},
		&SetPhaseOp{Frame: Ref("f"), Phase: Lit(0.3)},
		&ShiftFrequencyOp{Frame: Ref("f"), Freq: Lit(1e6)},
		&SetFrequencyOp{Frame: Ref("f"), Freq: Lit(5e9)},
		&DelayOp{Frame: Ref("f"), Samples: 100},
		&BarrierOp{Frames: []Value{Ref("f")}},
		&CaptureOp{Result: "m", Frame: Ref("f"), Samples: 64},
		&ReturnOp{Values: []Value{Ref("m")}},
		&ReturnOp{},
	}
	for _, op := range ops {
		if op.Render() == "" || op.OpName() == "" {
			t.Errorf("%T renders empty", op)
		}
		if !strings.HasPrefix(op.OpName(), "pulse.") {
			t.Errorf("%T op name %q not in pulse dialect", op, op.OpName())
		}
	}
}

func TestFindHelpers(t *testing.T) {
	m := listing2Module()
	if _, ok := m.FindWaveform("waveform_2"); !ok {
		t.Error("FindWaveform failed")
	}
	if _, ok := m.FindWaveform("nope"); ok {
		t.Error("FindWaveform found ghost")
	}
	if _, ok := m.FindSequence("pulse_vqe_quantum_kernel"); !ok {
		t.Error("FindSequence failed")
	}
	if _, ok := m.FindSequence("nope"); ok {
		t.Error("FindSequence found ghost")
	}
}

func TestParsedListing2Semantics(t *testing.T) {
	// After roundtrip, the parsed module must preserve waveform payloads.
	m := listing2Module()
	back, err := Parse(m.Print())
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := back.FindWaveform("waveform_1")
	if w1.Waveform.Len() != 5 || !w1.Waveform.Equal(m.WaveformDefs[0].Waveform, 1e-15) {
		t.Fatalf("waveform_1 is %v, want %v", w1.Waveform.Samples, m.WaveformDefs[0].Waveform.Samples)
	}
	w3, _ := back.FindWaveform("waveform_3")
	if w3.Envelope == nil || w3.Envelope.Kind() != "gaussian_square" || w3.Waveform.Len() != 64 ||
		!w3.Waveform.Equal(m.WaveformDefs[2].Waveform, 1e-15) {
		t.Fatalf("parametric def lost: %+v", w3)
	}
	seq := back.Sequences[0]
	if len(seq.ArgPorts) != 7 || seq.ArgPorts[2] != "q0q1-coupler-port" {
		t.Fatalf("argPorts lost: %v", seq.ArgPorts)
	}
}
