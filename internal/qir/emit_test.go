package qir

import (
	"math"
	"math/rand"
	"testing"
)

// edgeFloats are the values where a hand-written float renderer is most
// likely to part from fmt's %g: signed zero, the %e/%f switch points on
// either side, the longest renderings, subnormals and — last, so the
// parseable prefix is a slice — the three non-finite values (unreachable in
// a verified module, but Emit takes any module).
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-4, 9.999e-5, 1e-5, 1e-7, -1e-7,
	123456, 1234567, 1e20, 1e21, 1e22, -1e21, 5.1e9, math.Pi, -math.Pi,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	-2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

var finiteEdgeFloats = edgeFloats[:len(edgeFloats)-3]

// edgeModule puts every given float through both float positions of the
// format: waveform samples and f64 call arguments.
func edgeModule(floats []float64) *Module {
	m := &Module{
		ID: "edge", Profile: ProfilePulse, EntryName: "edge",
		NumPorts: 1, PortNames: []string{"p"},
	}
	var samples []complex128
	for i, f := range floats {
		samples = append(samples, complex(f, floats[len(floats)-1-i]))
		m.Body = append(m.Body, Call{Callee: IntrShiftPhase, Args: []Arg{PortArg(0), F64Arg(f)}})
	}
	m.Waveforms = []WaveformConst{
		{Name: "edges", Samples: samples},
		{Name: "one", Samples: []complex128{complex(0.5, -0.25)}},
	}
	m.Body = append(m.Body,
		Call{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("edges"), F64Arg(1)}},
		Call{Callee: IntrDelay, Args: []Arg{PortArg(0), I64Arg(math.MinInt64)}},
	)
	return m
}

// emitCorpus is every module shape the in-package tests know: the paper's
// listing, an unbound template, a module with no waveform defs and no
// ports, the edge floats, whatever the fuzz seeds parse to, and the
// property test's random modules.
func emitCorpus(t *testing.T) map[string]*Module {
	t.Helper()
	corpus := map[string]*Module{
		"listing3":   listing3Module(),
		"parametric": parametricModule(),
		"edge":       edgeModule(edgeFloats),
		"empty":      {},
		"bad-kind":   {EntryName: "b", Body: []Call{{Callee: "__unknown__", Args: []Arg{{Kind: ArgKind(42), I: 7}}}}},
		"no-defs": {ID: "g", Profile: ProfileBase, EntryName: "g", NumQubits: 1, NumResults: 1,
			Body: []Call{{Callee: GateIntrinsics["rx"], Args: []Arg{F64Arg(0.5), QubitArg(0)}},
				{Callee: IntrMz, Args: []Arg{QubitArg(0), ResultArg(0)}}}},
	}
	for i, seed := range fuzzSeeds() {
		if m, err := ParseModule(seed); err == nil {
			corpus["fuzz-seed-"+string(rune('0'+i))] = m
		}
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		m := randomModule(rng, trial)
		corpus[m.ID] = m
	}
	return corpus
}

// TestEmitMatchesReference: the append-based emitter and the fmt-based one
// it replaced produce the same bytes.
func TestEmitMatchesReference(t *testing.T) {
	for name, m := range emitCorpus(t) {
		if got, want := string(m.Emit()), EmitReference(m); got != want {
			t.Errorf("%s: Emit differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestEmitFloatMatchesFmt compares the emitter's float rendering with %g
// over random bit patterns, which reach exponents the corpus does not.
func TestEmitFloatMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := &Module{EntryName: "f", Profile: ProfileBase}
	for i := 0; i < 4096; i++ {
		m.Body = append(m.Body, Call{Callee: GateIntrinsics["rz"],
			Args: []Arg{F64Arg(math.Float64frombits(rng.Uint64())), QubitArg(0)}})
	}
	if string(m.Emit()) != EmitReference(m) {
		t.Fatal("float rendering differs from fmt's g verb")
	}
}

// TestEmitParseEmitFixedPoint: text that parses re-emits to itself, edge
// floats included.
func TestEmitParseEmitFixedPoint(t *testing.T) {
	for name, m := range map[string]*Module{"edge": edgeModule(finiteEdgeFloats), "listing3": listing3Module()} {
		text := m.Emit()
		back, err := ParseModule(string(text))
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, text)
		}
		if again := back.Emit(); string(again) != string(text) {
			t.Errorf("%s: not a fixed point\nfirst:\n%s\nsecond:\n%s", name, text, again)
		}
	}
}

// TestEmitAllocs pins Emit's allocations to the output buffer: a constant,
// whatever the number of samples.
func TestEmitAllocs(t *testing.T) {
	for _, n := range []int{8, 4096} {
		m := listing3Module()
		samples := make([]complex128, n)
		for i := range samples {
			samples[i] = complex(math.Sin(float64(i)), -1/float64(i+3))
		}
		m.Waveforms[0].Samples = samples
		if allocs := testing.AllocsPerRun(20, func() { _ = m.Emit() }); allocs > 1 {
			t.Errorf("%d samples: Emit allocates %.0f times, want 1 (the buffer)", n, allocs)
		}
	}
}
