package mlir_test

import (
	"strings"
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
	// Every frame op, with a literal operand and with a reference to an f64
	// argument.
	for _, op := range []string{"shift_phase(%f, V)", "set_phase(%f, V)", "shift_frequency(%f, V)",
		"set_frequency(%f, V)", "frame_change(%f, freq = V, phase = V)"} {
		for _, v := range []string{"0.25", "%v"} {
			f.Add(`module { pulse.sequence @s(%f: !pulse.mixed_frame, %v: f64) ports = ["q0-drive", ""] { pulse.` +
				strings.ReplaceAll(op, "V", v) + ` pulse.return } }`)
		}
	}
	// A template slot in each position Print writes one: a gate angle, an f64
	// frame operand (under a quoted name), a delay count and a play's
	// factor; and a play by a literal factor.
	for _, seq := range []string{"pulse.standard_rx(%f) {params = [param<1*theta+0>]}",
		`pulse.frame_change(%f, freq = param<1e+06*df+5e+09>, phase = param<-2*"θ x"+0.5>)`,
		"pulse.delay(%f, param<16*t+32>)"} {
		f.Add(`module { pulse.sequence @s(%f: !pulse.mixed_frame) ports = ["q0-drive"] { ` + seq + ` pulse.return } }`)
	}
	for _, factor := range []string{"-0.75", "param<0.5*amp-0.001>"} {
		f.Add(`module { pulse.def @w samples = [(0.5, 0), (0.25, -0.25)] pulse.sequence @s(%f: !pulse.mixed_frame) ` +
			`ports = ["q0-drive"] { %v = pulse.waveform_ref @w pulse.play(%f, %v, ` + factor + `) pulse.return } }`)
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
