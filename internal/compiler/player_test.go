package compiler

import (
	"context"
	"fmt"
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

// gateModule is the gate-level module of k with the given body.
func gateModule(k *qpi.Circuit, body []qir.Call) *qir.Module {
	return &qir.Module{ID: k.Name, Profile: qir.ProfileBase, EntryName: k.Name,
		NumQubits: k.Qubits, NumResults: k.Classical, Body: body}
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
	body := []qir.Call{call(qir.IntrX, 0), call(qir.IntrCZ, 0, 1), mz(0, 0), mz(1, 1)}
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
	compiled, gates := bothPaths(t, d, k, call(qir.IntrCZ, 0, 1), mz(0, 0), mz(1, 1))
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
		compiled, gates := bothPaths(t, d, k, call(qir.IntrCZ, int64(pair[0]), int64(pair[1])), mz(0, 0), mz(1, 1))
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
