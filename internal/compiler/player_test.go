package compiler

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/waveform"
)

// linked describes a schedule instruction by instruction: a play by its
// port, frame and samples (a compiled play's waveform is named after its def,
// a link-time one after its envelope), everything else as it prints.
func linked(t *testing.T, d *devices.SimDevice, m *qir.Module) []string {
	t.Helper()
	s, err := d.BuildScheduleForPayload(m)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, in := range s.Instructions() {
		if p, ok := in.(*pulse.Play); ok {
			out = append(out, fmt.Sprintf("play on %s/%s %v", p.Port, p.Frame, p.Waveform.Samples))
			continue
		}
		out = append(out, in.String())
	}
	return out
}

// gateModule is the gate-level module of kernel k with the given body,
// sized by the qubit and result handles the body names.
func gateModule(k *qpi.Circuit, body []qir.Call) *qir.Module {
	m := &qir.Module{ID: k.Name(), Profile: qir.ProfileBase, EntryName: k.Name(), Body: body}
	for _, c := range body {
		for _, a := range c.Args {
			switch a.Kind {
			case qir.ArgQubit:
				m.NumQubits = max(m.NumQubits, int(a.I)+1)
			case qir.ArgResult:
				m.NumResults = max(m.NumResults, int(a.I)+1)
			}
		}
	}
	return m
}

// bothPaths links kernel k on d twice: compiled, and as the gate-level module
// of the same program.
func bothPaths(t *testing.T, d *devices.SimDevice, k *qpi.Circuit, body ...qir.Call) (compiled, gates []string) {
	t.Helper()
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	res, err := Compile(k, d)
	if err != nil {
		t.Fatal(err)
	}
	return linked(t, d, res.QIR), linked(t, d, gateModule(k, body))
}

func call(callee string, qubits ...int64) qir.Call {
	c := qir.Call{Callee: callee}
	for _, q := range qubits {
		c.Args = append(c.Args, qir.QubitArg(q))
	}
	return c
}

func mz(q, r int64) qir.Call {
	return qir.Call{Callee: qir.IntrMz, Args: []qir.Arg{qir.QubitArg(q), qir.ResultArg(r)}}
}

// TestMeasureIsPlayedFromItsImplementation: a measurement installed with
// SetPulseImpl — a readout stimulus and a 40-sample capture — is what a
// compiled Measure and a gate-level mz both link to, step for step: one
// barrier over the site's drive and readout ports, the stimulus, the
// 40-sample window. Run on identically seeded devices, the two programs
// return equal counts and equal IQ points.
func TestMeasureIsPlayedFromItsImplementation(t *testing.T) {
	device := func() *devices.SimDevice {
		d := idealDevice(t)
		installMeasure(t, d, 0, 1)
		return d
	}
	k := qpi.NewCircuit("xm", 2, 2).X(0).CZ(0, 1).Measure(0, 0).Measure(1, 1)
	body := []qir.Call{call(qir.GateIntrinsics["x"], 0), call(qir.GateIntrinsics["cz"], 0, 1), mz(0, 0), mz(1, 1)}
	compiled, gates := bothPaths(t, device(), k, body...)
	if !slices.Equal(compiled, gates) {
		t.Fatalf("compiled Measure and gate-level mz link differently:\ncompiled: %q\ngates:    %q", compiled, gates)
	}
	for _, want := range []string{
		"barrier [q0-drive q0-readout]",
		"capture -> c[0] on q0-readout/q0-readout-frame (40 samples)",
		"capture -> c[1] on q1-readout/q1-readout-frame (40 samples)",
	} {
		if !slices.Contains(gates, want) {
			t.Errorf("no %q in %q", want, gates)
		}
	}
	if !slices.ContainsFunc(gates, func(s string) bool { return strings.HasPrefix(s, "play on q1-readout/q1-readout-frame") }) {
		t.Errorf("the readout stimulus is not played: %q", gates)
	}

	res, err := Compile(k, device())
	if err != nil {
		t.Fatal(err)
	}
	run := func(payload []byte, format qdmi.ProgramFormat) *qdmi.Result {
		t.Helper()
		job, err := device().SubmitJobOpts(payload, format, qdmi.JobOptions{Shots: 200, MeasLevel: readout.LevelKerneled})
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Wait(context.Background()); st != qdmi.JobDone {
			_, err := job.Result()
			t.Fatalf("job %v: %v", st, err)
		}
		out, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run(res.Payload, FormatFor(res.QIR))
	b := run(gateModule(k, body).Emit(), qdmi.FormatQIRBase)
	if !reflect.DeepEqual(a.Counts, b.Counts) || !reflect.DeepEqual(a.IQ, b.IQ) {
		t.Fatalf("compiled and gate-level results differ:\ncounts %v vs %v", a.Counts, b.Counts)
	}
	if len(a.IQ) == 0 {
		t.Fatal("no IQ points: the comparison compared nothing")
	}
}

// TestPairCalibrationIsUnordered: a cz installed on the pair (1, 0) is the
// pair's calibration. DefaultPulse answers it in either order, and a compiled
// cz and a gate-level one both play its samples.
func TestPairCalibrationIsUnordered(t *testing.T) {
	d := idealDevice(t)
	own, err := d.DefaultPulse("cz", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := own.Steps[1].Waveform.Scale(0.9)
	if err != nil {
		t.Fatal(err)
	}
	mine := &qdmi.PulseImpl{Operation: "cz", Steps: []qdmi.PulseStep{
		{Kind: "barrier"}, {Kind: "play", PortRole: "coupler", Waveform: w}, {Kind: "barrier"},
	}}
	if err := d.SetPulseImpl("cz", []int{1, 0}, mine); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][]int{{0, 1}, {1, 0}} {
		if got, err := d.DefaultPulse("cz", pair); err != nil || !reflect.DeepEqual(got, mine) {
			t.Errorf("DefaultPulse(cz, %v) is not the pulse installed on (1, 0) (err %v)", pair, err)
		}
		if has, _ := d.QueryOperationProperty("cz", pair, qdmi.OpPropHasPulseImpl); has != true {
			t.Errorf("cz on %v has no pulse", pair)
		}
	}
	k := qpi.NewCircuit("cz", 2, 2).CZ(0, 1).Measure(0, 0).Measure(1, 1)
	compiled, gates := bothPaths(t, d, k, call(qir.GateIntrinsics["cz"], 0, 1), mz(0, 0), mz(1, 1))
	want := fmt.Sprintf("play on q0q1-coupler/q0q1-coupler-frame %v", w.Samples)
	for path, got := range map[string][]string{"compiled": compiled, "gate-level": gates} {
		if !slices.Contains(got, want) {
			t.Errorf("the %s cz does not play the installed pulse", path)
		}
	}
}

// TestCZRolesResolveOnBothPaths: a cz implementation whose extra play names
// drive0 plays on the drive port of the operation's first site — not on the
// coupler — whether the compiler or the device plays it, and whichever
// operand comes first.
func TestCZRolesResolveOnBothPaths(t *testing.T) {
	d := idealDevice(t)
	cz, err := d.DefaultPulse("cz", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	kick, _ := waveform.Constant{Amplitude: 0.05}.Materialize("kick", 8)
	steps := slices.Insert(slices.Clone(cz.Steps), 2, qdmi.PulseStep{Kind: "play", PortRole: "drive0", Waveform: kick})
	if err := d.SetPulseImpl("cz", []int{0, 1}, &qdmi.PulseImpl{Operation: "cz", Steps: steps}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		k := qpi.NewCircuit("cz", 2, 2).CZ(pair[0], pair[1]).Measure(0, 0).Measure(1, 1)
		compiled, gates := bothPaths(t, d, k, call(qir.GateIntrinsics["cz"], int64(pair[0]), int64(pair[1])), mz(0, 0), mz(1, 1))
		if !slices.Equal(compiled, gates) {
			t.Fatalf("cz%v links differently:\ncompiled: %q\ngates:    %q", pair, compiled, gates)
		}
		drive := fmt.Sprintf("q%d-drive", pair[0])
		want := fmt.Sprintf("play on %s/%s-frame [(0.05+0i) (0.05+0i)", drive, drive)
		if !slices.ContainsFunc(gates, func(s string) bool { return strings.HasPrefix(s, want) }) {
			t.Errorf("cz%v: drive0's play is not on %s: %q", pair, drive, gates)
		}
	}
}

// TestDerivedNamesNeverTakeAKernelsOwn: a calibrated pulse's def is named
// after the pulse (x_q0), but a kernel whose own waveform already has that
// name keeps it, the pulse's def takes another, and the kernel runs to the
// counts of the same kernel with its waveform renamed. A value of MLIR text
// that has the name is not redefined either.
func TestDerivedNamesNeverTakeAKernelsOwn(t *testing.T) {
	own := []complex128{0.05, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.05}
	kernel := func(name string) *qpi.Circuit {
		k := qpi.NewCircuit("clash", 2, 2).Waveform(name, own).PlayWaveform("q0-drive", name).
			X(0).RX(0, 0.4).CZ(0, 1).Measure(0, 0).Measure(1, 1)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	counts := func(k *qpi.Circuit) (map[uint64]int, *Result) {
		d := scDevice(t)
		res, err := Compile(k, d)
		if err != nil {
			t.Fatal(err)
		}
		job, err := d.SubmitJob(res.Payload, FormatFor(res.QIR), 2000)
		if err != nil {
			t.Fatal(err)
		}
		if st := job.Wait(context.Background()); st != qdmi.JobDone {
			t.Fatalf("job status %v", st)
		}
		out, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		return out.Counts, res
	}
	got, clash := counts(kernel("x_q0"))
	want, renamed := counts(kernel("mine"))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel with its own x_q0 counts %v, renamed %v", got, want)
	}
	defs := map[string][]complex128{}
	for _, w := range clash.QIR.Waveforms {
		defs[w.Name] = w.Samples
	}
	if !slices.Equal(defs["x_q0"], own) {
		t.Fatalf("the kernel's x_q0 holds %v, not its own samples", defs["x_q0"])
	}
	if pi, ok := renamed.QIR.FindWaveform("x_q0"); !ok || !slices.Equal(defs["x_q0_2"], pi.Samples) {
		t.Fatalf("the π envelope of q0 is not x_q0_2 beside the kernel's x_q0: defs %v", slices.Collect(maps.Keys(defs)))
	}
	text := `module { pulse.sequence @k(%f0: !pulse.mixed_frame, %f1: !pulse.mixed_frame) -> (i1) ports = ["q0-drive", "q0-readout"] {
    %x_q0 = pulse.capture(%f1, 96)
    pulse.standard_x(%f0)
    pulse.return %x_q0
  } }`
	if _, err := CompileMLIRText(text, scDevice(t)); err != nil {
		t.Fatalf("MLIR text with a value named x_q0: %v", err)
	}
}

// TestAnglesDifferOnlyInTheFactor: two circuits that differ only in one
// rotation angle lower to the same waveform constants and to bodies that
// differ only in that rotation's play factor.
func TestAnglesDifferOnlyInTheFactor(t *testing.T) {
	dev := scDevice(t)
	lower := func(theta float64) *qir.Module {
		k := qpi.NewCircuit("angle", 2, 2).H(0).RX(0, 0.3).CZ(0, 1).RX(1, theta).SX(1).Measure(0, 0).Measure(1, 1)
		if err := k.End(); err != nil {
			t.Fatal(err)
		}
		res, err := Compile(k, dev)
		if err != nil {
			t.Fatal(err)
		}
		return res.QIR
	}
	a, b := lower(1.1), lower(-2.0)
	if !reflect.DeepEqual(a.Waveforms, b.Waveforms) {
		t.Fatalf("waveform constants differ: %d and %d", len(a.Waveforms), len(b.Waveforms))
	}
	if len(a.Body) != len(b.Body) {
		t.Fatalf("bodies of %d and %d calls", len(a.Body), len(b.Body))
	}
	var differ []int
	for i := range a.Body {
		if !reflect.DeepEqual(a.Body[i], b.Body[i]) {
			differ = append(differ, i)
		}
	}
	if len(differ) != 1 {
		t.Fatalf("calls %v differ, want one", differ)
	}
	ca, cb := a.Body[differ[0]], b.Body[differ[0]]
	if ca.Callee != qir.IntrPlay || !reflect.DeepEqual(ca.Args[:2], cb.Args[:2]) || ca.Args[2].F != 1.1*(1/math.Pi) || cb.Args[2].F != -2.0*(1/math.Pi) {
		t.Fatalf("the calls that differ are %v and %v, want one play by 1.1/π and by -2/π", ca, cb)
	}
}
