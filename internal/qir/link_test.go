package qir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// slottedTemplate is a seeded template on two ports holding every slot the
// link substitutes — two play factors, the frequency and phase slots of
// each frame-update kind, a delay count and a gate angle — among literal
// plays, frame updates and delays, in shuffled order.
func slottedTemplate(rng *rand.Rand, trial int) *Module {
	slot := func(kind ArgKind) Arg {
		e := &ParamExpr{Param: fmt.Sprintf("p%d", rng.Intn(3)), Scale: rng.NormFloat64(), Offset: rng.NormFloat64()}
		if kind == ArgI64 {
			e.Scale, e.Offset = 20*rng.Float64(), 30 // a count of at least 10 at |p| ≤ 1
		}
		return Arg{Kind: kind, Expr: e}
	}
	m := &Module{
		ID: fmt.Sprintf("tpl_%d", trial), Profile: ProfilePulse, EntryName: "main",
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{"q0-drive-port", "q1-drive-port"},
	}
	factors := make([]Arg, 3)
	for w := range factors {
		samples := make([]complex128, 1+rng.Intn(8))
		for i := range samples {
			samples[i] = complex(rng.Float64()*0.6-0.3, rng.Float64()*0.6-0.3)
		}
		m.Waveforms = append(m.Waveforms, WaveformConst{Name: fmt.Sprintf("wf_%d", w), Samples: samples})
		factors[w] = F64Arg(rng.Float64()*2 - 1)
		if w != 1 {
			factors[w] = Arg{Kind: ArgF64, Expr: &ParamExpr{Param: fmt.Sprintf("p%d", rng.Intn(3)), Scale: rng.Float64()*2 - 1}}
		}
	}
	port := func() Arg { return PortArg(int64(rng.Intn(2))) }
	play := func(w int) Call {
		return Call{Callee: IntrPlay, Args: []Arg{port(), WaveformArg(fmt.Sprintf("wf_%d", w)), factors[w]}}
	}
	m.Body = []Call{
		play(0), play(1), play(2),
		{Callee: IntrDelay, Args: []Arg{port(), slot(ArgI64)}},
		{Callee: IntrDelay, Args: []Arg{port(), I64Arg(int64(rng.Intn(64)))}},
		{Callee: GateIntrinsics["rx"], Args: []Arg{slot(ArgF64), QubitArg(0)}},
	}
	for _, fi := range FrameIntrinsics {
		m.Body = append(m.Body,
			fi.Call(port(), slot(ArgF64), slot(ArgF64)),
			fi.Call(port(), F64Arg(rng.NormFloat64()), slot(ArgF64)),
			fi.Call(port(), slot(ArgF64), F64Arg(rng.NormFloat64())),
			fi.Call(port(), F64Arg(rng.NormFloat64()), F64Arg(rng.NormFloat64())))
	}
	rng.Shuffle(len(m.Body), func(i, j int) { m.Body[i], m.Body[j] = m.Body[j], m.Body[i] })
	return m
}

// gateBinding is testBinding with a gate lowering that plays a gate's angle
// as a phase shift on port 0, and the indices of the instructions it
// appended.
func gateBinding() (*DeviceBinding, map[int]bool) {
	b, lowered := testBinding(), map[int]bool{}
	b.LowerGate = func(s *pulse.Schedule, _ *waveform.Gate, params []float64, _ []int64) error {
		lowered[s.Len()] = true
		return s.Append(&pulse.FrameUpdate{Port: "q0-drive-port", Frame: "q0-drive-port-frame",
			Kind: pulse.ShiftPhase, Phase: params[0]})
	}
	return b, lowered
}

// lines renders a schedule's instructions.
func lines(s *pulse.Schedule) []string {
	var out []string
	for _, in := range s.Instructions() {
		out = append(out, in.String())
	}
	return out
}

// TestTemplateLinksLikeItsPoint pins the link at a point: a template linked
// at a point's slot values gives the instructions its bound module gives
// linked as concrete, and its slots mark exactly the plays and frame updates
// each index of the point feeds — the instructions whose samples, frequency
// or phase move when that one index moves.
func TestTemplateLinksLikeItsPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := range 24 {
		tpl := slottedTemplate(rng, trial)
		for point := range 4 {
			vals := map[string]float64{}
			for _, name := range tpl.ParamNames() {
				vals[name] = rng.Float64()*2 - 1
			}
			samples, values, err := tpl.BindSlots(vals, nil, nil)
			if err != nil {
				t.Fatalf("trial %d point %d: %v", trial, point, err)
			}
			bound, err := tpl.Bind(vals)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := gateBinding()
			want, slots, err := BuildSchedule(bound, b, nil)
			if err != nil || slots != nil {
				t.Fatalf("trial %d point %d: bound module links with %v, slots %v", trial, point, err, slots)
			}
			b, lowered := gateBinding()
			pt := &pulse.Binding{Samples: samples, Values: values}
			got, slots, err := BuildSchedule(tpl, b, pt)
			if err != nil {
				t.Fatalf("trial %d point %d: %v", trial, point, err)
			}
			if g, w := lines(got), lines(want); !slices.Equal(g, w) {
				t.Fatalf("trial %d point %d: linked at the point\n%q\nlinked bound\n%q", trial, point, g, w)
			}

			// fed marks, in expect, the field of each instruction (other
			// than a gate's) that moved when the point moved to moved.
			expect := map[pulse.Instruction]pulse.Slot{}
			fed := func(moved *pulse.Binding, index int) {
				b, _ := gateBinding()
				s, _, err := BuildSchedule(tpl, b, moved)
				if err != nil {
					t.Fatalf("trial %d point %d: moved point: %v", trial, point, err)
				}
				for i, in := range got.Instructions() {
					if lowered[i] {
						continue
					}
					slot, ok := expect[in]
					if !ok {
						slot = pulse.Slot{Samples: -1, Hz: -1, Phase: -1}
					}
					switch v := in.(type) {
					case *pulse.Play:
						if !slices.Equal(v.Waveform.Samples, s.Instructions()[i].(*pulse.Play).Waveform.Samples) {
							slot.Samples = index
						}
					case *pulse.FrameUpdate:
						u := s.Instructions()[i].(*pulse.FrameUpdate)
						if u.Hz != v.Hz {
							slot.Hz = index
						}
						if u.Phase != v.Phase {
							slot.Phase = index
						}
					}
					if slot != (pulse.Slot{Samples: -1, Hz: -1, Phase: -1}) {
						expect[in] = slot
					}
				}
			}
			for k := range samples {
				moved := slices.Clone(samples)
				moved[k] = slices.Clone(samples[k])
				for i := range moved[k] {
					moved[k][i] *= 0.5
				}
				fed(&pulse.Binding{Samples: moved, Values: values}, k)
			}
			for j := range values {
				moved := slices.Clone(values)
				moved[j] += 3
				fed(&pulse.Binding{Samples: samples, Values: moved}, j)
			}
			if len(slots) != len(expect) {
				t.Fatalf("trial %d point %d: %d instructions marked, %d fed", trial, point, len(slots), len(expect))
			}
			for in, want := range expect {
				if slots[in] != want {
					t.Fatalf("trial %d point %d: %s marked %+v, fed by %+v", trial, point, in, slots[in], want)
				}
			}
		}
	}
}

// TestLinkRefusesPointsNotOfItsModule checks the point a link is given: a
// template needs one, a concrete module takes none, and a point carries one
// sample set per play whose factor is a slot and one finite value per
// argument slot, all of which the link checks as it checks a bound module's.
func TestLinkRefusesPointsNotOfItsModule(t *testing.T) {
	tpl := parametricModule()
	tpl.Body = append(tpl.Body, Call{Callee: IntrPlay, Args: []Arg{PortArg(0), WaveformArg("env"), F64Arg(1)}})
	good := func() *pulse.Binding {
		return &pulse.Binding{Samples: [][]complex128{{0.1, 0.2, 0.1}}, Values: []float64{0.5, 16, 0.4}}
	}
	if _, _, err := BuildSchedule(tpl, testBinding(), good()); err != nil {
		t.Fatalf("a point of the template: %v", err)
	}
	cases := map[string]*pulse.Binding{
		"no point":             nil,
		"missing sample set":   {Values: good().Values},
		"missing value":        {Samples: good().Samples, Values: []float64{0.5, 16}},
		"extra value":          {Samples: good().Samples, Values: []float64{0.5, 16, 0.4, 1}},
		"non-finite value":     {Samples: good().Samples, Values: []float64{math.NaN(), 16, 0.4}},
		"overdriven sample":    {Samples: [][]complex128{{0.1, 2, 0.1}}, Values: good().Values},
		"negative delay count": {Samples: good().Samples, Values: []float64{0.5, -16, 0.4}},
	}
	for name, pt := range cases {
		if _, _, err := BuildSchedule(tpl, testBinding(), pt); err == nil {
			t.Errorf("%s: linked", name)
		}
	}
	concrete, err := tpl.Bind(map[string]float64{"amp": 0.5, "phi": 1, "dt": 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildSchedule(concrete, testBinding(), good()); err == nil {
		t.Error("a concrete module linked at a template's point")
	}
}
