package qir_test

import (
	"math/rand"
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
