package mlir_test

import (
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/qpi"
)

// FuzzParse exercises the MLIR text parser — what api.ParseMLIR,
// api.CompileMLIR and mqss-compile -format mlir hand user text to — with
// arbitrary input: it must return an error or a module, never panic, and a
// module it accepts must print to text that parses back and prints the same.
// The corpus starts from what the compiler actually prints.
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
	for _, seed := range []string{front.Print(), res.MLIR.Print(), "module{pulse.def", "module { }", "garbage"} {
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
	})
}
