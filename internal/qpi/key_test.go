package qpi

import (
	"reflect"
	"testing"

	"mqsspulse/internal/waveform"
)

// TestKeyCoversEveryField perturbs each field of Op — and each field of
// each parametric slot — one at a time, then the circuit's name, register
// sizes and one waveform sample, and requires the key End renders to
// change, so a field added to Op cannot be left out of the lowering-cache
// key (as WindowSamples once was from the concrete-kernel fingerprint). A
// field of a kind the test cannot perturb fails it: teach perturb the new
// kind.
func TestKeyCoversEveryField(t *testing.T) {
	perturb := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("cannot perturb a %s field", v.Kind())
		}
	}
	// A literal, so the key can be taken of any Op, even one no builder
	// method records; the first op defines the waveform.
	circuit := func(op Op) *Circuit {
		return &Circuit{name: "k", qubits: 2, classical: 1,
			ops:       []Op{{Kind: OpWaveformDef, WaveformName: "w"}, op},
			waveforms: map[string]*waveform.Waveform{"w": {Name: "w", Samples: []complex128{0.5, 0.25i}}}}
	}
	key := func(c *Circuit) string {
		if err := c.End(); err != nil {
			t.Fatal(err)
		}
		return c.Key()
	}
	describe := func(op Op) string { return key(circuit(op)) }
	exprType := reflect.TypeOf(&ParamExpr{})
	filled := func() Op {
		op := Op{Qubits: []int{0}, Params: []float64{0.5}}
		v := reflect.ValueOf(&op).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Type() == exprType {
				v.Field(i).Set(reflect.ValueOf(&ParamExpr{Param: "p", Scale: 1}))
			}
		}
		return op
	}
	opType := reflect.TypeOf(Op{})
	for i := 0; i < opType.NumField(); i++ {
		name := opType.Field(i).Name
		if opType.Field(i).Type != exprType {
			op := filled()
			perturb(reflect.ValueOf(&op).Elem().Field(i))
			if describe(op) == describe(filled()) {
				t.Errorf("key ignores Op.%s", name)
			}
			continue
		}
		empty := filled()
		reflect.ValueOf(&empty).Elem().Field(i).Set(reflect.Zero(exprType))
		if describe(empty) == describe(filled()) {
			t.Errorf("key ignores whether Op.%s is set", name)
		}
		for j := 0; j < exprType.Elem().NumField(); j++ {
			op := filled()
			e := *reflect.ValueOf(&op).Elem().Field(i).Interface().(*ParamExpr)
			perturb(reflect.ValueOf(&e).Elem().Field(j))
			reflect.ValueOf(&op).Elem().Field(i).Set(reflect.ValueOf(&e))
			if describe(op) == describe(filled()) {
				t.Errorf("key ignores Op.%s.%s", name, exprType.Elem().Field(j).Name)
			}
		}
	}
	// Slice elements, not only lengths.
	op := filled()
	op.Qubits[0]++
	if describe(op) == describe(filled()) {
		t.Error("key ignores the values in Op.Qubits")
	}
	op = filled()
	op.Params[0]++
	if describe(op) == describe(filled()) {
		t.Error("key ignores the values in Op.Params")
	}
	// The circuit's own fields.
	for field, edit := range map[string]func(*Circuit){
		"name":            func(c *Circuit) { c.name += "x" },
		"qubit count":     func(c *Circuit) { c.qubits++ },
		"classical count": func(c *Circuit) { c.classical++ },
		"waveform sample": func(c *Circuit) { c.waveforms["w"].Samples[1] += 0.25 },
	} {
		c := circuit(filled())
		edit(c)
		if key(c) == describe(filled()) {
			t.Errorf("key ignores the circuit's %s", field)
		}
	}
}
