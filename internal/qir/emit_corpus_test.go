package qir_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
)

// TestEmitMatchesReferenceOnCompiledModules runs the emitter comparison
// over what the compiler actually produces: the determinism test's mixed
// kernel, seeded random gate kernels on a device whose calibrated envelopes
// are DRAG-shaped (long, irrational samples), and a template's module with
// its slots still unbound.
func TestEmitMatchesReferenceOnCompiledModules(t *testing.T) {
	dev, err := devices.Superconducting("sc-emit", 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]*qpi.Circuit{
		"mixed": qpi.NewCircuit("determinism", 2, 2).
			H(0).RX(1, 0.7).RZ(0, 1.1).CX(0, 1).SX(1).
			Waveform("blip", []complex128{0.1, 0.2, 0.1, 0}).
			PlayWaveform("q0-drive", "blip").
			Measure(0, 0).Measure(1, 1),
		"template": qpi.NewCircuit("rabi", 1, 1).
			RXP(0, qpi.Sym("theta")).RZP(0, qpi.SymAffine("phi", 2, 0.5)).Measure(0, 0),
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 16; n++ {
		c := qpi.NewCircuit("random", 2, 2)
		for g := 0; g < 4+rng.Intn(20); g++ {
			q := rng.Intn(2)
			switch rng.Intn(6) {
			case 0:
				c.X(q)
			case 1:
				c.H(q)
			case 2:
				c.SX(q)
			case 3:
				c.RX(q, rng.NormFloat64()*3)
			case 4:
				c.RZ(q, rng.NormFloat64()*3)
			case 5:
				c.CZ(q, 1-q)
			}
		}
		kernels["random-"+string(rune('a'+n))] = c.Measure(0, 0).Measure(1, 1)
	}
	for name, k := range kernels {
		if err := k.End(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := compiler.Lower(k, dev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := string(res.QIR.Emit()), qir.EmitReference(res.QIR); got != want {
			t.Errorf("%s: Emit differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestParametricTextRoundTrip: the exchange text says everything a module
// holds, slots included — ParseModule(Emit(m)) deep-equals m for the
// hand-written and random slotted modules and for a Rabi template as the
// compiler lowers it, and the parsed template binds to the bytes the
// original binds to. (This is what the JSON module codec's round-trip test
// checked, on the one format that is left.)
func TestParametricTextRoundTrip(t *testing.T) {
	dev, err := devices.Superconducting("sc-emit", 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	rabi := qpi.NewCircuit("rabi", 1, 1).
		RXP(0, qpi.Sym("theta")).RZP(0, qpi.SymAffine("phi", 2, 0.5)).Measure(0, 0)
	if err := rabi.End(); err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Lower(rabi, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QIR.IsParametric() {
		t.Fatal("the compiled template carries no slot")
	}
	corpus := qir.SlottedModules()
	corpus["compiled-rabi"] = res.QIR
	for name, m := range corpus {
		text := m.Emit()
		back, err := qir.ParseModule(string(text))
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, text)
			continue
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%s: the parsed module differs from the emitted one\ntext:\n%s\nparsed: %+v\nwant:   %+v", name, text, back, m)
		}
		if again := back.Emit(); !bytes.Equal(again, text) {
			t.Errorf("%s: not a fixed point\nfirst:\n%s\nsecond:\n%s", name, text, again)
		}
	}

	back, err := qir.ParseModule(string(res.QIR.Emit()))
	if err != nil {
		t.Fatal(err)
	}
	point := map[string]float64{"theta": 1.25, "phi": -0.3}
	want, err := res.QIR.Bind(point)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Bind(point)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Emit(), want.Emit()) {
		t.Fatal("the parsed template binds a different payload")
	}
}
