package compiler

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
)

func scDevice(t *testing.T) *devices.SimDevice {
	t.Helper()
	d, err := devices.Superconducting("sc-compile", 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func bellCircuit(t *testing.T) *qpi.Circuit {
	t.Helper()
	c := qpi.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

// pulseVQECircuit reproduces the paper's Listing 1 kernel through the QPI.
func pulseVQECircuit(t *testing.T, dev *devices.SimDevice) *qpi.Circuit {
	t.Helper()
	amp := dev.CalibratedPiAmplitude(0)
	samples := make([]complex128, 32)
	for i := range samples {
		x := float64(i) - 15.5
		samples[i] = complex(amp*math.Exp(-x*x/(2*36)), 0)
	}
	c := qpi.NewCircuit("pulse_vqe_quantum_kernel", 2, 2).
		X(0).X(1).
		Waveform("waveform_1", samples).
		Waveform("waveform_2", samples).
		Waveform("waveform_3", samples).
		PlayWaveform("q0-drive", "waveform_1").
		PlayWaveform("q1-drive", "waveform_2").
		FrameChange("q0-drive", 4.9e9, 0.25).
		FrameChange("q1-drive", 5.05e9, -0.25).
		PlayWaveform("q0q1-coupler", "waveform_3").
		Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFrontendBellStructure(t *testing.T) {
	dev := scDevice(t)
	m, err := Frontend(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	seq := m.Sequences[0]
	// Ports: q0-drive, q1-drive, coupler, q0-readout, q1-readout = 5.
	if len(seq.Args) != 5 {
		t.Fatalf("args = %d: %v", len(seq.Args), seq.ArgPorts)
	}
	if len(seq.Results) != 2 {
		t.Fatalf("results = %d", len(seq.Results))
	}
	gates := 0
	for _, op := range seq.Ops {
		if _, ok := op.(*mlir.StandardGateOp); ok {
			gates++
		}
	}
	if gates != 2 {
		t.Fatalf("gate ops = %d, want 2 (h, cx)", gates)
	}
}

func TestFrontendValidation(t *testing.T) {
	dev := scDevice(t)
	unfinished := qpi.NewCircuit("u", 1, 0).X(0)
	if _, err := Frontend(unfinished, dev); err == nil {
		t.Fatal("unfinished circuit accepted")
	}
	tooBig := qpi.NewCircuit("big", 5, 0).X(4)
	_ = tooBig.End()
	if _, err := Frontend(tooBig, dev); err == nil {
		t.Fatal("qubit beyond device accepted")
	}
	empty := qpi.NewCircuit("e", 1, 0)
	_ = empty.End()
	if _, err := Frontend(empty, dev); err == nil {
		t.Fatal("empty kernel accepted")
	}
}

func TestCompileBellEndToEnd(t *testing.T) {
	dev := scDevice(t)
	res, err := Compile(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	// After lowering no gate ops remain; profile is pulse.
	if res.QIR.Profile != "pulse" {
		t.Fatalf("profile %q", res.QIR.Profile)
	}
	if res.Stats["lowering.gates"] != 2 {
		t.Fatalf("lowered %d gates", res.Stats["lowering.gates"])
	}
	for _, c := range res.QIR.Body {
		if strings.Contains(c.Callee, "__quantum__qis__") {
			t.Fatalf("residual gate intrinsic %s after lowering", c.Callee)
		}
	}
	// Execute the compiled payload on the device: Bell statistics.
	job, err := dev.SubmitJob(res.Payload, FormatFor(res.QIR), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		r, rerr := job.Result()
		t.Fatalf("job %v: %v %v", st, r, rerr)
	}
	out, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	p00 := float64(out.Counts[0b00]) / float64(out.Shots)
	p11 := float64(out.Counts[0b11]) / float64(out.Shots)
	if math.Abs(p00-0.5) > 0.07 || math.Abs(p11-0.5) > 0.07 {
		t.Fatalf("compiled Bell: p00=%g p11=%g counts=%v", p00, p11, out.Counts)
	}
}

func TestCompileListing1KernelEndToEnd(t *testing.T) {
	dev := scDevice(t)
	res, err := Compile(pulseVQECircuit(t, dev), dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QIR.UsesPulse() {
		t.Fatal("pulse kernel lost its pulse ops")
	}
	// Landmarks of Listing 3 in the emitted exchange format.
	text := string(res.Payload)
	for _, want := range []string{
		`"qir_profiles"="pulse"`,
		"__quantum__pulse__waveform_play__body",
		"__quantum__pulse__frame_change__body",
		"@waveform_1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("payload missing %q", want)
		}
	}
	job, err := dev.SubmitJob(res.Payload, FormatFor(res.QIR), 500)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		_, rerr := job.Result()
		t.Fatalf("job %v: %v", st, rerr)
	}
}

func TestCompileTimingsPopulated(t *testing.T) {
	dev := scDevice(t)
	res, err := Compile(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Frontend <= 0 || res.Timings.Midend <= 0 || res.Timings.Backend <= 0 {
		t.Fatalf("timings not recorded: %+v", res.Timings)
	}
	if len(res.Timings.Passes) == 0 {
		t.Fatal("per-pass timings missing")
	}
}

func TestCompiledGateSemantics(t *testing.T) {
	// X then measure through the full compile+execute path.
	dev := scDevice(t)
	c := qpi.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
	_ = c.End()
	res, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := dev.SubmitJob(res.Payload, FormatFor(res.QIR), 2000)
	job.Wait(context.Background())
	out, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if p1 := float64(out.Counts[1]) / float64(out.Shots); p1 < 0.95 {
		t.Fatalf("compiled X: P(1)=%g", p1)
	}
}

func TestCompiledInterferenceSemantics(t *testing.T) {
	// H·RZ(π)·H = X up to virtual-Z bookkeeping: tests the IR-level
	// lowering conventions against the device execution path.
	dev := scDevice(t)
	c := qpi.NewCircuit("hzh", 1, 1).H(0).RZ(0, math.Pi).H(0).Measure(0, 0)
	_ = c.End()
	res, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := dev.SubmitJob(res.Payload, FormatFor(res.QIR), 2000)
	job.Wait(context.Background())
	out, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if p1 := float64(out.Counts[1]) / float64(out.Shots); p1 < 0.92 {
		t.Fatalf("compiled H·Z·H: P(1)=%g", p1)
	}
}

func TestCanonicalizeMergesFrameOps(t *testing.T) {
	dev := scDevice(t)
	c := qpi.NewCircuit("zz", 1, 1).
		RZ(0, 0.3).RZ(0, 0.4).RZ(0, 0.0). // should merge to one shift
		Measure(0, 0)
	_ = c.End()
	res, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["canonicalize.removed"] == 0 {
		t.Fatalf("canonicalize removed nothing: %v", res.Stats)
	}
	shifts := 0
	for _, call := range res.QIR.Body {
		if strings.Contains(call.Callee, "shift_phase") {
			shifts++
		}
	}
	if shifts != 1 {
		t.Fatalf("expected 1 merged shift_phase, got %d", shifts)
	}
}

func TestDeadWaveformElimination(t *testing.T) {
	dev := scDevice(t)
	c := qpi.NewCircuit("dead", 1, 1).
		Waveform("used", []complex128{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}).
		Waveform("unused", []complex128{0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2}).
		PlayWaveform("q0-drive", "used").
		Measure(0, 0)
	_ = c.End()
	res, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.QIR.FindWaveform("unused"); ok {
		t.Fatal("dead waveform survived")
	}
	if _, ok := res.QIR.FindWaveform("used"); !ok {
		t.Fatal("live waveform eliminated")
	}
	if res.Stats["dce.removed"] == 0 {
		t.Fatal("DCE stats empty")
	}
}

func TestLegalizePadsOddWaveforms(t *testing.T) {
	dev := scDevice(t) // granularity 8
	odd := make([]complex128, 13)
	for i := range odd {
		odd[i] = 0.1
	}
	c := qpi.NewCircuit("odd", 1, 1).
		Waveform("odd", odd).
		PlayWaveform("q0-drive", "odd").
		Measure(0, 0)
	_ = c.End()
	res, err := Compile(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := res.QIR.FindWaveform("odd")
	if !ok {
		t.Fatal("waveform lost")
	}
	if len(w.Samples)%8 != 0 {
		t.Fatalf("waveform not padded to granularity: %d samples", len(w.Samples))
	}
	if res.Stats["legalize.padded"] == 0 {
		t.Fatal("legalize stats empty")
	}
	// The padded payload must execute.
	job, err := dev.SubmitJob(res.Payload, FormatFor(res.QIR), 100)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		_, rerr := job.Result()
		t.Fatalf("padded payload failed: %v %v", st, rerr)
	}
}

// TestCallerAmpsDoNotReachKernel: Waveform and WaveformP keep a copy of the
// caller's amplitudes, so writing to them after the call changes neither the
// finished circuit's key nor what it compiles to.
func TestCallerAmpsDoNotReachKernel(t *testing.T) {
	dev := scDevice(t)
	blip := []complex128{0.1, 0.2, 0.3, complex(0.2, 0.1), 0.1, 0, 0, 0}
	for name, define := range map[string]func(*qpi.Circuit, []complex128) *qpi.Circuit{
		"Waveform":  func(c *qpi.Circuit, amps []complex128) *qpi.Circuit { return c.Waveform("blip", amps) },
		"WaveformP": func(c *qpi.Circuit, amps []complex128) *qpi.Circuit { return c.WaveformP("blip", amps, qpi.Sym("a")) },
	} {
		build := func(edit bool) (*qpi.Circuit, *Result) {
			amps := slices.Clone(blip)
			c := define(qpi.NewCircuit("blip", 1, 1), amps)
			if edit {
				for i := range amps {
					amps[i] = 0.9
				}
			}
			if err := c.PlayWaveform("q0-drive", "blip").Measure(0, 0).End(); err != nil {
				t.Fatal(err)
			}
			res, err := Lower(c, dev)
			if err != nil {
				t.Fatal(err)
			}
			return c, res
		}
		want, wantRes := build(false)
		got, gotRes := build(true)
		if got.Key() != want.Key() {
			t.Errorf("%s: editing the caller's amps changed the key", name)
		}
		if gotRes.MLIR.Print() != wantRes.MLIR.Print() || !bytes.Equal(gotRes.QIR.Emit(), wantRes.QIR.Emit()) {
			t.Errorf("%s: editing the caller's amps changed the compiled program", name)
		}
	}
}

// TestLowerLeavesKernelUntouched: the compiled module shares the kernel's
// waveforms, and no stage writes to them — not the frontend, not the
// legalize pass padding a 12-sample def to the granularity, not the backend.
// A finished circuit's key and every sample stay bit-identical.
func TestLowerLeavesKernelUntouched(t *testing.T) {
	dev := scDevice(t) // granularity 8
	c := qpi.NewCircuit("blips", 1, 1).
		Waveform("blip", []complex128{0.1, 0.2, 0.3, complex(0.2, 0.1), 0.1, 0, 0, 0}).
		WaveformP("odd", []complex128{0.3, 0.2, 0.1, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.1, 0.2, 0.3}, qpi.Sym("a")).
		PlayWaveform("q0-drive", "blip").
		X(0).
		PlayWaveform("q0-drive", "odd").
		Measure(0, 0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	key := c.Key()
	bits := func() []uint64 {
		var out []uint64
		for _, name := range []string{"blip", "odd"} {
			w, _ := c.LookupWaveform(name)
			for _, s := range w.Samples {
				out = append(out, math.Float64bits(real(s)), math.Float64bits(imag(s)))
			}
		}
		return out
	}
	before := bits()
	res, err := Lower(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["legalize.padded"] != 1 {
		t.Fatalf("padded %d defs, want the 12-sample one", res.Stats["legalize.padded"])
	}
	_ = res.QIR.Emit()
	if c.Key() != key || !slices.Equal(bits(), before) {
		t.Fatal("lowering changed the finished circuit")
	}
}

func TestCompileMLIRTextPath(t *testing.T) {
	dev := scDevice(t)
	// Build MLIR via the frontend, print it, and compile the text — the
	// adapter path for IR-producing frontends.
	m, err := Frontend(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileMLIRText(m.Print(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QIR.UsesPulse() {
		t.Fatal("MLIR-text path did not lower to pulse")
	}
	// Same module in, same text out as the QPI path.
	direct, err := Compile(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Payload) == 0 || !bytes.Equal(res.Payload, direct.Payload) {
		t.Fatalf("MLIR-text payload (%d bytes) differs from Compile's (%d bytes)", len(res.Payload), len(direct.Payload))
	}
	// A parametric module has no runnable payload until it is bound: the
	// rule both paths share (emit) withholds the payload rather than hand
	// out text no device runs.
	sym := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := sym.End(); err != nil {
		t.Fatal(err)
	}
	if m, err = Frontend(sym, dev); err != nil {
		t.Fatal(err)
	}
	if res, err := CompileMLIRText(m.Print(), dev); err == nil && res.Payload != nil {
		t.Fatalf("parametric MLIR text produced a %d-byte payload", len(res.Payload))
	}
	lowered, err := Lower(sym, dev)
	if err != nil {
		t.Fatal(err)
	}
	if lowered.emit(); !lowered.QIR.IsParametric() || lowered.Payload != nil {
		t.Fatalf("parametric module: IsParametric=%v, payload of %d bytes; want a parametric module and no payload",
			lowered.QIR.IsParametric(), len(lowered.Payload))
	}
	if _, err := CompileMLIRText("not mlir at all", dev); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestTemplateMLIRTextRoundTrips checks that MLIR text carries a
// template's slots in each position the frontend writes one — a gate angle,
// a frame change's frequency and phase, a delay count, a play's factor —
// and under a name that is no identifier, and a concrete kernel's drives of
// several angles: the frontend's printed text, and the lowered module's,
// parse back to text that prints the same, and compiling either text lowers
// to the QIR module compiling the kernel does.
func TestTemplateMLIRTextRoundTrips(t *testing.T) {
	dev, err := devices.Superconducting("sc-2", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	env := []complex128{0.1, 0.3, 0.5, 0.3, 0.1, 0, 0, 0}
	kernels := map[string]*qpi.Circuit{
		"rxp": qpi.NewCircuit("rxp", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0),
		"rzp": qpi.NewCircuit("rzp", 1, 1).H(0).RZP(0, qpi.SymAffine("phi", -2, 0.5)).H(0).Measure(0, 0),
		"framechangep": qpi.NewCircuit("fcp", 1, 1).FrameChangeP("q0-drive", qpi.SymAffine("df", 1e6, 5e9), qpi.Sym("phase")).
			X(0).Measure(0, 0),
		"delayp": qpi.NewCircuit("delayp", 1, 1).X(0).DelayP("q0-drive", qpi.SymAffine("t", 16, 32)).Measure(0, 0),
		"waveformp": qpi.NewCircuit("waveformp", 1, 1).WaveformP("env", env, qpi.SymAffine("amp", 0.5, 1e-3)).
			PlayWaveform("q0-drive", "env").Measure(0, 0),
		"quoted": qpi.NewCircuit("quoted", 2, 2).RXP(1, qpi.Sym(`θ "x" 1`)).CX(0, 1).
			DelayP("q1-drive", qpi.Sym("9lives")).Measure(0, 0).Measure(1, 1),
		"angles": qpi.NewCircuit("angles", 2, 2).RX(0, 0.3).RX(0, -2.2).RY(1, 1e-7).X(1).SX(0).
			RX(1, 5.5).CZ(0, 1).RY(0, math.Pi).Measure(0, 0).Measure(1, 1),
	}
	for name, k := range kernels {
		if err := k.End(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		front, err := Frontend(k, dev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := front.Print()
		if !strings.Contains(text, "param<") && k.IsParametric() {
			t.Fatalf("%s: frontend text carries no slot:\n%s", name, text)
		}
		direct, err := Lower(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{text, direct.MLIR.Print()} {
			back, err := mlir.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, text)
			}
			if again := back.Print(); again != text {
				t.Fatalf("%s: printed text is not a fixed point\nfirst:\n%s\nsecond:\n%s", name, text, again)
			}
			fromText, err := CompileMLIRText(text, dev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := fromText.QIR.Emit(), direct.QIR.Emit(); !bytes.Equal(got, want) {
				t.Fatalf("%s: QIR from MLIR text differs from the kernel's\ntext:\n%s\nkernel:\n%s", name, got, want)
			}
		}
	}
}

func TestPipelinePassList(t *testing.T) {
	pm := passes.DefaultPipeline()
	names := pm.Passes()
	want := []string{"verify", "gate-to-pulse-lowering", "canonicalize",
		"dead-waveform-elim", "legalize-hardware-constraints", "verify-calibration"}
	if len(names) != len(want) {
		t.Fatalf("pipeline = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("pass %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestGateLoweringRequiresDevice(t *testing.T) {
	dev := scDevice(t)
	m, err := Frontend(bellCircuit(t), dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx := passes.NewContext(nil)
	err = passes.DefaultPipeline().Run(m, ctx)
	if err == nil {
		t.Fatal("gate lowering without device accepted")
	}
}
