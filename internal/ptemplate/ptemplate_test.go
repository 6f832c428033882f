package ptemplate

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/waveform"
)

func rabiTemplate(t testing.TB) *Template {
	t.Helper()
	c := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	tpl, err := New(c, Param{Name: "theta", Min: 0.1, Max: math.Pi})
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func templateDevice(t testing.TB) *devices.SimDevice {
	t.Helper()
	dev, err := devices.Superconducting("tpl-sc", 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestBindValidationTable drives every bind-time rejection class through
// Validate: each must wrap ErrBadParam and fire before any lowering or
// dispatch work.
func TestBindValidationTable(t *testing.T) {
	tpl := rabiTemplate(t)
	cases := []struct {
		name    string
		b       Bindings
		wantErr bool
	}{
		{"in range", Bindings{"theta": 1.0}, false},
		{"at min", Bindings{"theta": 0.1}, false},
		{"at max", Bindings{"theta": math.Pi}, false},
		{"missing", Bindings{}, true},
		{"nil bindings", nil, true},
		{"NaN", Bindings{"theta": math.NaN()}, true},
		{"+Inf", Bindings{"theta": math.Inf(1)}, true},
		{"-Inf", Bindings{"theta": math.Inf(-1)}, true},
		{"below min", Bindings{"theta": 0.0999}, true},
		{"above max", Bindings{"theta": math.Pi + 1e-6}, true},
		{"undeclared extra", Bindings{"theta": 1.0, "phi": 0.5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateBindings(tpl.params, tc.b)
			if tc.wantErr {
				if !errors.Is(err, ErrBadParam) {
					t.Fatalf("Validate(%v) = %v, want ErrBadParam", tc.b, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate(%v) = %v, want nil", tc.b, err)
			}
		})
	}
}

// TestNewRejectsBadDeclarations covers the template-construction contract:
// the declared parameter set must match the referenced set exactly and
// every range must be finite and non-empty.
func TestNewRejectsBadDeclarations(t *testing.T) {
	parametric := func() *qpi.Circuit {
		c := qpi.NewCircuit("p", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	theta := Param{Name: "theta", Min: 0.1, Max: 1}
	cases := []struct {
		name   string
		c      *qpi.Circuit
		params []Param
		want   string
	}{
		{"nil circuit", nil, []Param{theta}, "nil circuit"},
		{"undeclared", parametric(), nil, "undeclared parameter"},
		{"unreferenced", parametric(), []Param{theta, {Name: "phi", Min: 0, Max: 1}}, "never referenced"},
		{"duplicate", parametric(), []Param{theta, theta}, "declared twice"},
		{"empty name", parametric(), []Param{{Min: 0, Max: 1}}, "empty name"},
		{"NaN range", parametric(), []Param{{Name: "theta", Min: math.NaN(), Max: 1}}, "non-finite range"},
		{"inverted range", parametric(), []Param{{Name: "theta", Min: 2, Max: 1}}, "empty range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.c, tc.params...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}

	concrete := qpi.NewCircuit("c", 1, 1).RX(0, 1).Measure(0, 0)
	if err := concrete.End(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(concrete, theta); err == nil {
		t.Fatal("New accepted a circuit with no parameter slots")
	}
}

// TestNewProvesRangeLegality: illegal parameter ranges fail at template
// construction — once — instead of surfacing per sweep point.
func TestNewProvesRangeLegality(t *testing.T) {
	t.Run("rx angle must stay in [-pi, pi]", func(t *testing.T) {
		c := qpi.NewCircuit("r", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		for _, legal := range []Param{{Name: "theta", Min: -math.Pi, Max: math.Pi}, {Name: "theta", Min: 0, Max: 1}} {
			if _, err := New(c, legal); err != nil {
				t.Fatalf("range [%g, %g] rejected: %v", legal.Min, legal.Max, err)
			}
		}
		if _, err := New(c, Param{Name: "theta", Min: -math.Pi - 0.1, Max: 0}); err == nil {
			t.Fatal("range below -pi accepted")
		}
		if _, err := New(c, Param{Name: "theta", Min: 0.1, Max: math.Pi + 0.1}); err == nil {
			t.Fatal("range past pi accepted")
		}
	})
	t.Run("delay must stay non-negative", func(t *testing.T) {
		c := qpi.NewCircuit("d", 1, 1).
			DelayP("q0-drive", qpi.SymAffine("dt", 1, -10)).
			RX(0, 1).Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		if _, err := New(c, Param{Name: "dt", Min: 0, Max: 100}); err == nil {
			t.Fatal("delay range reaching -10 samples accepted")
		}
		if _, err := New(c, Param{Name: "dt", Min: 10, Max: 100}); err != nil {
			t.Fatalf("legal delay range rejected: %v", err)
		}
	})
	t.Run("amplitude must stay within full scale", func(t *testing.T) {
		env := waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.25}
		c := qpi.NewCircuit("a", 1, 1).
			WaveformEnvelopeP("drive", env, 32, qpi.Sym("amp")).
			PlayWaveform("q0-drive", "drive").
			Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		if _, err := New(c, Param{Name: "amp", Min: 0, Max: 1.5}); err == nil {
			t.Fatal("amplitude range overdriving full scale accepted")
		}
		if _, err := New(c, Param{Name: "amp", Min: 0, Max: 1}); err != nil {
			t.Fatalf("legal amplitude range rejected: %v", err)
		}
	})
	t.Run("explicit samples scale within full scale", func(t *testing.T) {
		c := qpi.NewCircuit("s", 1, 1).
			WaveformP("drive", []complex128{0.1, 0.4, 0.1, 0}, qpi.Sym("amp")).
			PlayWaveform("q0-drive", "drive").
			Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		// |amp|·peak ≤ 1 with peak 0.4: the range may reach ±2.5 and no further.
		if _, err := New(c, Param{Name: "amp", Min: -2.6, Max: 1}); err == nil {
			t.Fatal("negative amplitude overdriving full scale accepted")
		}
		if _, err := New(c, Param{Name: "amp", Min: -2.5, Max: 2.5}); err != nil {
			t.Fatalf("legal amplitude range rejected: %v", err)
		}
	})
}

// TestBindMatchesPerPointCompile is the deferred-binding correctness core:
// a payload produced by compile-once-then-bind must be byte-identical to a
// fresh compilation at the same concrete value — of a gate angle anywhere in
// (−π, π] but 0, and of the amplitude of an explicit-sample waveform (the
// calibration Rabi sweep). At 0 and −π a bound rotation plays a different
// schedule (a zero-amplitude envelope, the π envelope negated) for the same
// unitary, so those points must give the fresh compile's counts instead.
func TestBindMatchesPerPointCompile(t *testing.T) {
	dev := templateDevice(t)
	samples := make([]complex128, 32)
	for i := range samples {
		samples[i] = complex(0.5*math.Sin(math.Pi*float64(i)/31), 0.1)
	}
	scaledPlay := qpi.NewCircuit("scaled", 1, 1).
		WaveformP("w", samples, qpi.Sym("amp")).PlayWaveform("q0-drive", "w").Measure(0, 0)
	if err := scaledPlay.End(); err != nil {
		t.Fatal(err)
	}
	ampTemplate, err := New(scaledPlay, Param{Name: "amp", Min: 0.05, Max: 1.9})
	if err != nil {
		t.Fatal(err)
	}
	rotation := func(gate string, slot func(*qpi.Circuit, int, *qpi.ParamExpr) *qpi.Circuit) (*Template, func(float64) *qpi.Circuit) {
		c := slot(qpi.NewCircuit(gate, 1, 1), 0, qpi.Sym("theta")).Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		tpl, err := New(c, Param{Name: "theta", Min: -math.Pi, Max: math.Pi})
		if err != nil {
			t.Fatal(err)
		}
		return tpl, func(theta float64) *qpi.Circuit {
			return qpi.NewCircuit(gate, 1, 1).Gate(gate, []int{0}, theta).Measure(0, 0)
		}
	}
	rxTemplate, rxRef := rotation("rx", (*qpi.Circuit).RXP)
	ryTemplate, ryRef := rotation("ry", (*qpi.Circuit).RYP)
	signed := []float64{-3.0, -math.Pi / 2, -0.7, -0.1, 0.1, 0.7, math.Pi / 2, 3.0, math.Pi}
	for _, row := range []struct {
		tpl    *Template
		param  string
		points []float64
		ref    func(v float64) *qpi.Circuit
		// sameCounts are the points whose schedule differs from a fresh
		// compile's but whose counts must not.
		sameCounts []float64
	}{
		{rabiTemplate(t), "theta", []float64{0.1, 0.7, 1.5, math.Pi / 2, 3.0, math.Pi},
			func(theta float64) *qpi.Circuit { return qpi.NewCircuit("rabi", 1, 1).RX(0, theta).Measure(0, 0) }, nil},
		{rxTemplate, "theta", signed, rxRef, []float64{0, -math.Pi}},
		{ryTemplate, "theta", signed, ryRef, []float64{0, -math.Pi}},
		{ampTemplate, "amp", []float64{0.05, 0.3, 1, 1.9},
			func(amp float64) *qpi.Circuit {
				scaled := make([]complex128, len(samples))
				for i, x := range samples {
					scaled[i] = complex(amp, 0) * x
				}
				return qpi.NewCircuit("scaled", 1, 1).
					Waveform("w", scaled).PlayWaveform("q0-drive", "w").Measure(0, 0)
			}, nil},
	} {
		compiled, err := Lower(row.tpl, dev, "tpl-sc")
		if err != nil {
			t.Fatal(err)
		}
		if !compiled.Module.IsParametric() {
			t.Fatalf("%s: lowered template lost its unbound slots", row.param)
		}
		for _, v := range row.points {
			mod, err := compiled.Bind(Bindings{row.param: v})
			if err != nil {
				t.Fatalf("%s=%g: %v", row.param, v, err)
			}
			bound := mod.Emit()
			res := compileRef(t, row.ref(v), dev)
			if !bytes.Equal(bound, res.Payload) {
				t.Fatalf("%s %s=%g: bound payload differs from per-point compile\nbound:\n%s\nref:\n%s",
					row.tpl.circuit.Name(), row.param, v, bound, res.Payload)
			}
		}
		for _, v := range row.sameCounts {
			mod, err := compiled.Bind(Bindings{row.param: v})
			if err != nil {
				t.Fatal(err)
			}
			ref := compileRef(t, row.ref(v), dev)
			if bytes.Equal(mod.Emit(), ref.Payload) {
				t.Fatalf("%s %s=%g: bound payload equals the fresh compile; the schedules should differ",
					row.tpl.circuit.Name(), row.param, v)
			}
			got, want := countsOnFreshDevice(t, mod), countsOnFreshDevice(t, ref.QIR)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s=%g: bound counts %v, fresh compile's %v", row.tpl.circuit.Name(), row.param, v, got, want)
			}
		}
	}
}

// compileRef finishes k and compiles it against dev.
func compileRef(t *testing.T, k *qpi.Circuit, dev *devices.SimDevice) *compiler.Result {
	t.Helper()
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(k, dev)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	return res
}

// countsOnFreshDevice runs mod as the first job of a newly built
// templateDevice: two modules run this way see the same shot seeds.
func countsOnFreshDevice(t *testing.T, mod *qir.Module) map[uint64]int {
	t.Helper()
	job, err := templateDevice(t).SubmitModule(mod, qdmi.JobOptions{Shots: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		t.Fatalf("job status %v", st)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res.Counts
}

// TestBindRejectsBeforeDevice: a bad point fails with ErrBadParam at bind
// time, never producing a payload.
func TestBindRejectsBeforeDevice(t *testing.T) {
	dev := templateDevice(t)
	compiled, err := Lower(rabiTemplate(t), dev, "tpl-sc")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Bindings{nil, {"theta": math.NaN()}, {"theta": 99}, {"theta": 1, "phi": 2}} {
		if _, err := compiled.Bind(b); !errors.Is(err, ErrBadParam) {
			t.Fatalf("Bind(%v) = %v, want ErrBadParam", b, err)
		}
	}
}

// TestFromTextRebuildsProgram: a template's text, declared parameters and
// epoch are enough to rebuild it on the far side of a machine boundary — the
// rebuilt program binds to byte-identical payloads, and its format follows
// from the module's profile. Text that does not parse or verify, and a
// declaration that misses one of the text's slots, fail typed; a declared
// parameter whose only slot lowering dropped (a waveform never played) does
// not.
func TestFromTextRebuildsProgram(t *testing.T) {
	dev := templateDevice(t)
	compiled, err := Lower(rabiTemplate(t), dev, "tpl-sc")
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromText(string(compiled.Text()), compiled.Params, compiled.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Epoch != compiled.Epoch || rebuilt.Format != compiled.Format {
		t.Fatalf("epoch/format = %d/%s, want %d/%s", rebuilt.Epoch, rebuilt.Format, compiled.Epoch, compiled.Format)
	}
	want, err := compiled.Bind(Bindings{"theta": 1.25})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Bind(Bindings{"theta": 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Emit(), want.Emit()) {
		t.Fatal("rebuilt template binds a different payload")
	}
	if _, err := rebuilt.Bind(Bindings{"theta": 99}); !errors.Is(err, ErrBadParam) {
		t.Fatalf("rebuilt template lost its parameter range: err = %v", err)
	}

	unplayed := qpi.NewCircuit("unplayed", 1, 1).
		WaveformEnvelopeP("unused", waveform.Gaussian{Amplitude: 1, SigmaFrac: 0.2}, 16, qpi.Sym("amp")).
		RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := unplayed.End(); err != nil {
		t.Fatal(err)
	}
	tpl, err := New(unplayed, Param{Name: "amp", Min: 0, Max: 1}, Param{Name: "theta", Min: 0.1, Max: 3})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := Lower(tpl, dev, "tpl-sc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromText(string(dropped.Text()), dropped.Params, dropped.Epoch); err != nil {
		t.Fatalf("a parameter whose slot lowering dropped: %v", err)
	}

	text := string(compiled.Text())
	unverifiable := strings.Replace(text, `"required_num_ports"="`, `"required_num_ports"="9`, 1)
	for name, tc := range map[string]struct {
		text   string
		params []Param
	}{
		"not a program":      {"garbage", nil},
		"does not verify":    {unverifiable, compiled.Params},
		"undeclared slot":    {text, nil},
		"misnamed parameter": {text, []Param{{Name: "phi", Min: 0, Max: 1}}},
		"declared twice":     {text, append(compiled.Params[:1:1], compiled.Params...)},
	} {
		if _, err := FromText(tc.text, tc.params, 0); !errors.Is(err, qdmi.ErrInvalidArgument) {
			t.Errorf("%s: err = %v, want qdmi.ErrInvalidArgument", name, err)
		}
	}
}

// TestTemplateKeySensitivity: a template's key, the client's lowering-cache
// key beside the device, holds its structure and declared parameter ranges.
func TestTemplateKeySensitivity(t *testing.T) {
	build := func(min, max float64) *Template {
		c := qpi.NewCircuit("rabi", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		tpl, err := New(c, Param{Name: "theta", Min: min, Max: max})
		if err != nil {
			t.Fatal(err)
		}
		return tpl
	}
	a, b := build(0.1, math.Pi), build(0.1, math.Pi)
	if a.Key() != b.Key() {
		t.Fatal("identical templates key differently")
	}
	if a.Key() == build(0.2, math.Pi).Key() {
		t.Fatal("key ignores declared parameter range")
	}
}
