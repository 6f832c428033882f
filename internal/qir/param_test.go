package qir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func parametricModule() *Module {
	return &Module{
		ID: "tpl", Profile: ProfilePulse, EntryName: "main",
		NumQubits: 1, NumResults: 1, NumPorts: 1,
		PortNames: []string{"q0-drive"},
		Waveforms: []WaveformConst{
			{Name: "env", Samples: []complex128{0.25, 0.5, 0.25}},
			{Name: "fixed", Samples: []complex128{0.1}},
		},
		Body: []Call{
			{Callee: IntrShiftPhase, Args: []Arg{
				PortArg(0),
				{Kind: ArgF64, Expr: &ParamExpr{Param: "phi", Scale: 2, Offset: 0.5}},
			}},
			{Callee: IntrDelay, Args: []Arg{
				PortArg(0),
				{Kind: ArgI64, Expr: &ParamExpr{Param: "dt", Scale: 1}},
			}},
			{Callee: IntrPlay, Args: []Arg{
				PortArg(0), WaveformArg("env"),
				{Kind: ArgF64, Expr: &ParamExpr{Param: "amp", Scale: 1}},
			}},
		},
	}
}

func TestModuleParametricIntrospection(t *testing.T) {
	m := parametricModule()
	if !m.IsParametric() {
		t.Fatal("module with unbound slots reports concrete")
	}
	names := m.ParamNames()
	want := []string{"amp", "dt", "phi"}
	if len(names) != len(want) {
		t.Fatalf("ParamNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ParamNames = %v, want %v", names, want)
		}
	}
}

func TestBindSubstitutesEverySlot(t *testing.T) {
	m := parametricModule()
	bound, err := m.Bind(map[string]float64{"amp": 0.5, "phi": 1.0, "dt": 16.2})
	if err != nil {
		t.Fatal(err)
	}
	if bound.IsParametric() {
		t.Fatalf("unbound slots survived: %v", bound.ParamNames())
	}
	// The receiver must stay untouched (templates are bound many times).
	if !m.IsParametric() {
		t.Fatal("Bind mutated the template module")
	}
	// amp binds the play's factor; the waveform it scales is shared.
	if got := bound.Body[2].Args[2]; got.Kind != ArgF64 || got.F != 0.5 || got.Expr != nil {
		t.Fatalf("bound play factor = %+v", got)
	}
	if &bound.Waveforms[0] != &m.Waveforms[0] {
		t.Fatal("Bind copied the waveform constants")
	}
	// phi binds through the affine map 2·1.0 + 0.5.
	if got := bound.Body[0].Args[1]; got.Kind != ArgF64 || got.F != 2.5 || got.Expr != nil {
		t.Fatalf("bound f64 arg = %+v", got)
	}
	// dt rounds to the nearest integer sample count.
	if got := bound.Body[1].Args[1]; got.Kind != ArgI64 || got.I != 16 || got.Expr != nil {
		t.Fatalf("bound i64 arg = %+v", got)
	}
	if err := bound.Verify(); err != nil {
		t.Fatalf("bound module fails verification: %v", err)
	}
}

func TestBindRejections(t *testing.T) {
	m := parametricModule()
	cases := []struct {
		name string
		vals map[string]float64
	}{
		{"missing parameter", map[string]float64{"amp": 0.5, "phi": 1}},
		{"non-finite result", map[string]float64{"amp": 0.5, "phi": math.Inf(1), "dt": 1}},
		{"overdriven waveform", map[string]float64{"amp": 3, "phi": 1, "dt": 1}},
		{"negative delay", map[string]float64{"amp": 0.5, "phi": 1, "dt": -4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Bind(tc.vals); err == nil {
				t.Fatalf("Bind(%v) succeeded", tc.vals)
			}
		})
	}
}

// SlottedModules is the in-package half of the parametric round-trip
// corpus: the hand-written template above, one whose parameter names hold
// everything a quoted string can, and the property test's random modules
// with a share of their numeric arguments, play factors among them, turned
// into slots. It is exported (from a _test.go file) so the external test, which
// adds what the compiler produces, can use it.
func SlottedModules() map[string]*Module {
	awkward := parametricModule()
	awkward.ID = "awkward"
	awkward.Body[2].Args[2].Expr.Param = `a "quoted", (nested) name`
	awkward.Body[0].Args[1].Expr = &ParamExpr{Param: "line\nbreak\\θ", Scale: -1e-300, Offset: math.MaxFloat64}
	awkward.Body[1].Args[1].Expr.Param = ""
	corpus := map[string]*Module{"hand-written": parametricModule(), "awkward": awkward}
	rng := rand.New(rand.NewSource(16))
	slot := func() *ParamExpr {
		return &ParamExpr{Param: fmt.Sprintf("p%d", rng.Intn(4)), Scale: rng.NormFloat64(), Offset: rng.NormFloat64()}
	}
	for trial := 0; trial < 40; trial++ {
		m := randomModule(rng, trial)
		for _, c := range m.Body {
			for ai, a := range c.Args {
				if (a.Kind == ArgF64 || a.Kind == ArgI64) && rng.Intn(2) == 0 {
					c.Args[ai] = Arg{Kind: a.Kind, Expr: slot()}
				}
			}
		}
		corpus[m.ID] = m
	}
	return corpus
}

// TestVerifyRejectsSlotOnHandle: only numeric arguments can be slots; the
// text has no way to say anything else, and Verify holds in-memory modules
// to the same rule.
func TestVerifyRejectsSlotOnHandle(t *testing.T) {
	m := parametricModule()
	m.Body[0].Args[0].Expr = &ParamExpr{Param: "port", Scale: 1}
	if err := m.Verify(); err == nil {
		t.Fatal("Verify accepted a slot on a port handle")
	}
}
