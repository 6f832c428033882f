package qir

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// listing3Module reconstructs the paper's Listing 3: a pulse-profile module
// mixing pulse intrinsics with gate-level mz calls.
func listing3Module() *Module {
	return &Module{
		ID:         "my_pulse",
		Profile:    ProfilePulse,
		EntryName:  "my_pulse",
		NumQubits:  2,
		NumResults: 2,
		NumPorts:   1,
		PortNames:  []string{"q0-drive-port"},
		Waveforms: []WaveformConst{
			{Name: "waveform0", Samples: []complex128{0.1, 0.4, complex(0.8, 0.1), 0.4, 0.1}},
		},
		Body: []Call{
			{Callee: IntrWaveform, Args: []Arg{WaveformArg("waveform0")}},
			{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("waveform0"), F64Arg(1)}},
			{Callee: IntrFrameChange, Args: []Arg{PortArg(0), F64Arg(5.1e9), F64Arg(0.25)}},
			{Callee: IntrDelay, Args: []Arg{PortArg(0), I64Arg(1024)}},
			{Callee: IntrMz, Args: []Arg{QubitArg(0), ResultArg(0)}},
			{Callee: IntrMz, Args: []Arg{QubitArg(1), ResultArg(1)}},
		},
	}
}

func TestListing3Verifies(t *testing.T) {
	m := listing3Module()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if !m.UsesPulse() {
		t.Fatal("pulse use not detected")
	}
}

func TestEmitContainsListing3Landmarks(t *testing.T) {
	text := string(listing3Module().Emit())
	for _, want := range []string{
		"; ModuleID = 'my_pulse'",
		"%Port = type opaque",
		"%Waveform = type opaque",
		"%Frame = type opaque",
		"define void @my_pulse() #0",
		"call void @__quantum__pulse__waveform_play__body",
		"call void @__quantum__pulse__frame_change__body",
		"call void @__quantum__qis__mz__body",
		`"qir_profiles"="pulse"`,
		`"required_num_ports"="1"`,
		"declare void @__quantum__pulse__waveform_play__body(%Port*, %Waveform*, double)",
		`!ports = !{!"q0-drive-port"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted module missing %q\n%s", want, text)
		}
	}
}

func TestEmitParseRoundtrip(t *testing.T) {
	m := listing3Module()
	text := string(m.Emit())
	back, err := ParseModule(text)
	if err != nil {
		t.Fatalf("%v\nsource:\n%s", err, text)
	}
	if err := back.Verify(); err != nil {
		t.Fatal(err)
	}
	if string(back.Emit()) != text {
		t.Fatalf("roundtrip not stable:\n%s\nvs\n%s", text, back.Emit())
	}
	if back.ID != "my_pulse" || back.Profile != ProfilePulse {
		t.Fatalf("metadata lost: %+v", back)
	}
	w, ok := back.FindWaveform("waveform0")
	if !ok || len(w.Samples) != 5 {
		t.Fatal("waveform constant lost")
	}
	if w.Samples[2] != complex(0.8, 0.1) {
		t.Fatalf("complex sample lost: %v", w.Samples[2])
	}
	if len(back.Body) != 6 {
		t.Fatalf("body has %d calls, want 6", len(back.Body))
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"",                       // empty → no entry
		"gibberish at top level", // unknown syntax
		"define void @f() #0 {\n  call void @foo(bananas)\n}",
	}
	for i, src := range cases {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestVerifyRejections(t *testing.T) {
	mk := func(mutate func(*Module)) error {
		m := listing3Module()
		mutate(m)
		return m.Verify()
	}
	cases := []struct {
		name   string
		mutate func(*Module)
	}{
		{"no entry", func(m *Module) { m.EntryName = "" }},
		{"bad profile", func(m *Module) { m.Profile = "turbo" }},
		{"pulse under base", func(m *Module) { m.Profile = ProfileBase }},
		{"port count mismatch", func(m *Module) { m.PortNames = nil }},
		{"dup waveform", func(m *Module) { m.Waveforms = append(m.Waveforms, m.Waveforms[0]) }},
		{"empty waveform", func(m *Module) { m.Waveforms[0].Samples = nil }},
		{"unknown intrinsic", func(m *Module) { m.Body[0].Callee = "__quantum__nope" }},
		{"arity", func(m *Module) { m.Body[1].Args = m.Body[1].Args[:1] }},
		{"arg kind", func(m *Module) { m.Body[1].Args[0] = QubitArg(0) }},
		{"qubit range", func(m *Module) { m.Body[4].Args[0] = QubitArg(9) }},
		{"result range", func(m *Module) { m.Body[4].Args[1] = ResultArg(5) }},
		{"port range", func(m *Module) { m.Body[1].Args[0] = PortArg(3) }},
		{"ghost waveform", func(m *Module) { m.Body[1].Args[1] = WaveformArg("ghost") }},
		{"NaN double", func(m *Module) { m.Body[2].Args[2] = F64Arg(math.NaN()) }},
		{"infinite double", func(m *Module) { m.Body[2].Args[1] = F64Arg(math.Inf(-1)) }},
		{"barrier non-port", func(m *Module) {
			m.Body = append(m.Body, Call{Callee: IntrBarrier, Args: []Arg{QubitArg(0)}})
		}},
	}
	for _, tc := range cases {
		if err := mk(tc.mutate); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func testBinding() *DeviceBinding {
	mkPort := func(id string, site int) *pulse.Port {
		return &pulse.Port{ID: id, Kind: pulse.PortDrive, Sites: []int{site},
			SampleRateHz: 1e9, MaxAmplitude: 1.0}
	}
	return &DeviceBinding{
		Ports: []*pulse.Port{mkPort("q0-drive-port", 0), mkPort("q1-drive-port", 1)},
		FrameFor: func(portID string) (*pulse.Frame, error) {
			return pulse.NewFrame(portID+"-frame", 5.0e9), nil
		},
		LowerMeasure: func(s *pulse.Schedule, q, r int64) error {
			port := "q0-drive-port"
			if q == 1 {
				port = "q1-drive-port"
			}
			return s.Append(&pulse.Capture{Port: port, Frame: port + "-frame",
				Bit: int(r), DurationSamples: 64})
		},
	}
}

func TestBuildSchedulePulseProfile(t *testing.T) {
	m := listing3Module()
	m.NumPorts = 2
	m.PortNames = []string{"q0-drive-port", "q1-drive-port"}
	s, slots, err := BuildSchedule(m, testBinding(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// waveform upload is a no-op; play, frame_change, delay, 2 captures = 5.
	if s.Len() != 5 {
		t.Fatalf("schedule has %d instructions, want 5:\n%s", s.Len(), s)
	}
	if slots != nil {
		t.Fatalf("a concrete module linked with slots %v", slots)
	}
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// play(5) + delay(1024) then captures.
	if sp.TotalDuration() < 1024+5 {
		t.Fatalf("duration = %d", sp.TotalDuration())
	}
}

func TestBuildScheduleGateNeedsLowering(t *testing.T) {
	m := &Module{
		ID: "g", Profile: ProfileBase, EntryName: "g",
		NumQubits: 1, NumResults: 1,
		Body: []Call{{Callee: GateIntrinsics["x"], Args: []Arg{QubitArg(0)}}},
	}
	b := testBinding()
	b.LowerGate = nil
	if _, _, err := BuildSchedule(m, b, nil); err == nil {
		t.Fatal("gate call without LowerGate accepted")
	}
	lowered := 0
	b.LowerGate = func(s *pulse.Schedule, gate *waveform.Gate, params []float64, qubits []int64) error {
		lowered++
		if gate.Name != "x" || len(qubits) != 1 {
			t.Errorf("unexpected lowering: %s %v", gate.Name, qubits)
		}
		return nil
	}
	if _, _, err := BuildSchedule(m, b, nil); err != nil {
		t.Fatal(err)
	}
	if lowered != 1 {
		t.Fatal("LowerGate not invoked")
	}
}

func TestBuildScheduleRejectsUnverifiable(t *testing.T) {
	m := listing3Module()
	m.Profile = ProfileBase // pulse under base → verify fails
	if _, _, err := BuildSchedule(m, testBinding(), nil); err == nil {
		t.Fatal("unverifiable module linked")
	}
}

func TestBuildScheduleInsufficientPorts(t *testing.T) {
	m := listing3Module()
	b := testBinding()
	b.Ports = b.Ports[:0]
	if _, _, err := BuildSchedule(m, b, nil); err == nil {
		t.Fatal("link with zero ports accepted")
	}
}

func TestDecodeGateCall(t *testing.T) {
	g, p, q := decodeGateCall(Call{Callee: GateIntrinsics["rx"], Args: []Arg{F64Arg(0.5), QubitArg(3)}})
	if g == nil || g.Name != "rx" || len(p) != 1 || p[0] != 0.5 || len(q) != 1 || q[0] != 3 {
		t.Fatalf("decoded %v %v %v", g, p, q)
	}
	if g, _, _ := decodeGateCall(Call{Callee: "nope"}); g != nil {
		t.Fatal("unknown callee decoded")
	}
}

func TestPulseIntrinsicNamesFollowConvention(t *testing.T) {
	for _, name := range PulseIntrinsics {
		if !strings.HasPrefix(name, "__quantum__pulse__") || !strings.HasSuffix(name, "__body") {
			t.Errorf("intrinsic %s violates naming convention", name)
		}
	}
	for gate, callee := range GateIntrinsics {
		if !strings.HasPrefix(callee, "__quantum__qis__") {
			t.Errorf("gate %s intrinsic %s violates naming convention", gate, callee)
		}
	}
}

func TestArgKindStrings(t *testing.T) {
	for k := ArgQubit; k <= ArgI64; k++ {
		if strings.HasPrefix(k.String(), "ArgKind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
}

func TestEmitNegativeAndSmallFloats(t *testing.T) {
	m := listing3Module()
	m.Body[2].Args[2] = F64Arg(-math.Pi)
	text := string(m.Emit())
	back, err := ParseModule(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Body[2].Args[2].F; !(math.Abs(got+math.Pi) <= 1e-12) {
		t.Fatalf("phase roundtrip: %g", got)
	}
}

// randomModule generates a structurally valid pulse-profile module.
func randomModule(rng *rand.Rand, trial int) *Module {
	m := &Module{
		ID: fmt.Sprintf("mod_%d", trial), Profile: ProfilePulse,
		EntryName: fmt.Sprintf("entry_%d", trial),
		NumQubits: 1 + rng.Intn(3), NumResults: 1 + rng.Intn(3),
		NumPorts: 1 + rng.Intn(3),
	}
	for p := 0; p < m.NumPorts; p++ {
		m.PortNames = append(m.PortNames, fmt.Sprintf("port-%d", p))
	}
	nw := 1 + rng.Intn(3)
	for w := 0; w < nw; w++ {
		n := 1 + rng.Intn(16)
		samples := make([]complex128, n)
		for i := range samples {
			samples[i] = complex(rng.Float64()*1.6-0.8, rng.Float64()*1.6-0.8)
		}
		m.Waveforms = append(m.Waveforms, WaveformConst{
			Name: fmt.Sprintf("wf_%d", w), Samples: samples})
	}
	ops := 1 + rng.Intn(10)
	for o := 0; o < ops; o++ {
		port := PortArg(int64(rng.Intn(m.NumPorts)))
		switch rng.Intn(6) {
		case 0:
			m.Body = append(m.Body, Call{Callee: IntrPlay, Args: []Arg{
				port, WaveformArg(fmt.Sprintf("wf_%d", rng.Intn(nw))), F64Arg(rng.Float64()*2 - 1)}})
		case 1:
			m.Body = append(m.Body, Call{Callee: IntrFrameChange, Args: []Arg{
				port, F64Arg(rng.NormFloat64() * 1e9), F64Arg(rng.NormFloat64())}})
		case 2:
			m.Body = append(m.Body, Call{Callee: IntrShiftPhase, Args: []Arg{
				port, F64Arg(rng.NormFloat64())}})
		case 3:
			m.Body = append(m.Body, Call{Callee: IntrDelay, Args: []Arg{
				port, I64Arg(int64(rng.Intn(1000)))}})
		case 4:
			m.Body = append(m.Body, Call{Callee: IntrBarrier, Args: []Arg{port}})
		case 5:
			m.Body = append(m.Body, Call{Callee: IntrMz, Args: []Arg{
				QubitArg(int64(rng.Intn(m.NumQubits))),
				ResultArg(int64(rng.Intn(m.NumResults)))}})
		}
	}
	return m
}

func TestQuickEmitParseRoundtrip(t *testing.T) {
	// Property: any structurally valid module survives emit→parse→emit.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := randomModule(rng, trial)
		if err := m.Verify(); err != nil {
			t.Fatalf("trial %d: generated invalid module: %v", trial, err)
		}
		text := string(m.Emit())
		back, err := ParseModule(text)
		if err != nil {
			t.Fatalf("trial %d: parse: %v", trial, err)
		}
		if string(back.Emit()) != text {
			t.Fatalf("trial %d: roundtrip unstable", trial)
		}
	}
}
