package mlir_test

import (
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/qpi"
)

// FuzzParse exercises the MLIR text parser — what api.ParseMLIR,
// api.CompileMLIR and mqss-compile -format mlir hand user text to, and the
// one reader of waveform text — with arbitrary input: it must return an error
// or a module, never panic, and a module it accepts must print to text that
// parses back and prints the same. Every def of a module Verify accepts is
// non-empty and within full scale. The corpus starts from what the compiler
// actually prints, plus pulse.def lines of each form.
func FuzzParse(f *testing.F) {
	dev, err := devices.Superconducting("sc-fuzz", 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	k := qpi.NewCircuit("bell", 2, 2).H(0).CX(0, 1).
		Waveform("blip", []complex128{0.1, 0.2, 0.1, 0}).PlayWaveform("q0-drive", "blip").
		Measure(0, 0).Measure(1, 1)
	if err := k.End(); err != nil {
		f.Fatal(err)
	}
	front, err := compiler.Frontend(k, dev)
	if err != nil {
		f.Fatal(err)
	}
	res, err := compiler.Compile(k, dev)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{front.Print(), res.MLIR.Print(), "module{pulse.def", "module { }", "garbage",
		`module { pulse.def @w samples = [(0.5, 0), (0.25, -0.25)] }`,
		`module { pulse.def @g kind = "gaussian" length = 32 params = {amplitude = 0.8, sigma_frac = 0.2} }`,
		`module { pulse.def @d kind = "drag" length = 16 params = {amplitude = 0.5, beta = 0.7, sigma_frac = 0.2} }`,
		`module { pulse.def @z kind = "gaussian" length = 0 params = {amplitude = 0.8, sigma_frac = 0.2} }`,
		`module { pulse.def @big samples = [(2, 0)] }`,
		`module { pulse.def @u kind = "sawtooth" length = 8 params = {amplitude = 0.5} }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := mlir.Parse(src)
		if err != nil {
			return
		}
		text := m.Print()
		again, err := mlir.Parse(text)
		if err != nil {
			t.Fatalf("re-parse of printed module failed: %v\nprinted:\n%s", err, text)
		}
		if second := again.Print(); second != text {
			t.Fatalf("printed text is not a fixed point\nfirst:\n%s\nsecond:\n%s", text, second)
		}
		if m.Verify() != nil {
			return
		}
		for _, def := range m.WaveformDefs {
			if def.Waveform.Len() == 0 {
				t.Fatalf("Verify accepted empty def @%s from %q", def.Name, src)
			}
			if peak := def.Waveform.PeakAmplitude(); peak > 1+1e-9 {
				t.Fatalf("Verify accepted def @%s with |s| = %g from %q", def.Name, peak, src)
			}
		}
	})
}
