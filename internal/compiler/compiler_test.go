package compiler

import (
	"bytes"
	"context"
	"math"
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
	nan := qpi.NewCircuit("nan", 1, 0).RX(0, math.NaN())
	_ = nan.End()
	if _, err := Frontend(nan, dev); err == nil {
		t.Fatal("NaN parameter accepted")
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

// TestLowerCopiesKernelWaveforms: the frontend copies each kernel waveform
// once, and the passes, the backend and the link share that copy. A caller
// writing to Circuit.Waveforms after Lower changes neither the compiled MLIR
// def nor the QIR constant. The waveform is a multiple of the granularity, so
// no padding makes a copy on the way.
func TestLowerCopiesKernelWaveforms(t *testing.T) {
	dev := scDevice(t) // granularity 8
	c := qpi.NewCircuit("blip", 1, 1).
		Waveform("blip", []complex128{0.1, 0.2, 0.3, complex(0.2, 0.1), 0.1, 0, 0, 0}).
		PlayWaveform("q0-drive", "blip").
		Measure(0, 0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	res, err := Lower(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["legalize.padded"] != 0 {
		t.Fatal("the kernel waveform was padded: the pass copied it, not the frontend")
	}
	def, _ := res.MLIR.FindWaveform("blip")
	wc, _ := res.QIR.FindWaveform("blip")
	if def == nil || wc == nil {
		t.Fatal("the kernel waveform is not in the compiled module")
	}
	mlirText, qirText := res.MLIR.Print(), string(res.QIR.Emit())
	for i := range c.Waveforms["blip"].Samples {
		c.Waveforms["blip"].Samples[i] = 0.9
	}
	if got := res.MLIR.Print(); got != mlirText {
		t.Fatalf("writing to the kernel changed the MLIR def:\n%s\nwas:\n%s", got, mlirText)
	}
	if got := string(res.QIR.Emit()); got != qirText {
		t.Fatalf("writing to the kernel changed the QIR constant:\n%s\nwas:\n%s", got, qirText)
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
	// A parametric module has no runnable payload until it is bound. The
	// MLIR parser takes no parameter expressions today, so such a module
	// cannot arrive on this path; if it ever does, the rule both paths share
	// (emit) withholds the payload rather than hand out text no device runs.
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
