package simq

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/waveform"
)

// planKinds is p's plan as its steps' kind names.
func planKinds(p *Program) []string {
	var out []string
	for _, s := range p.steps {
		out = append(out, StepKinds[s.kind])
	}
	return out
}

// play appends a play of samples on port and frame.
func play(t *testing.T, s *pulse.Schedule, port, frame string, samples []complex128) {
	t.Helper()
	w, err := waveform.New("w", samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&pulse.Play{Port: port, Frame: frame, Waveform: w}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanKinds pins the path Prepare plans for each kind of stretch, one
// program per kind on the tiny-1 shape (open and closed), the tiny-2 shape
// (two d = 2 sites and a ZZ coupler), sc-2 and three d = 3 sites: a
// symmetric Gaussian is varying ticks around its equal middle pair; a tick
// that drives single sites of a separable density model is a site tick, one
// that sounds the coupler a dense one; a long open square is a stretch map
// at n ≤ 9 only; zero drive over zero drift is a zero-drive stretch. Every
// plan covers the makespan once.
func TestPlanKinds(t *testing.T) {
	gauss, err := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize("g", 8)
	if err != nil {
		t.Fatal(err)
	}
	flat := func(v complex128, n int) []complex128 {
		out := make([]complex128, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	resonant := func(ex *Executor, fill func(s *pulse.Schedule)) func() (*Executor, *pulse.ScheduledProgram) {
		return func() (*Executor, *pulse.ScheduledProgram) { return ex, resonantProgram(t, fill) }
	}
	for _, c := range []struct {
		name string
		prog func() (*Executor, *pulse.ScheduledProgram)
		want []string
	}{
		{"tiny-1", resonant(oneQubitOpenRig(t), func(s *pulse.Schedule) {
			play(t, s, "d0", "f0", gauss.Samples)
			if err := s.Append(&pulse.Delay{Port: "d0", Samples: 5}); err != nil {
				t.Fatal(err)
			}
			play(t, s, "d0", "f0", flat(0.5, 16))
			play(t, s, "d0", "f0", flat(0, 3))
		}), []string{"dense_tick", "open_stretch", "dense_tick", "idle", "stretch_map", "zero_drive"}},
		{"tiny-1 closed", func() (*Executor, *pulse.ScheduledProgram) {
			s, ex := oneQubitRig(t, 250e6, nil)
			play(t, s, "q0-drive-port", "q0-drive-frame", gauss.Samples)
			play(t, s, "q0-drive-port", "q0-drive-frame", flat(0, 3))
			play(t, s, "q0-drive-port", "q0-drive-frame", flat(0.5, 5))
			sp, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			return ex, sp
		}, []string{"dense_tick", "closed_stretch", "dense_tick", "zero_drive", "closed_stretch"}},
		{"tiny-2", func() (*Executor, *pulse.ScheduledProgram) {
			s, ex, _ := siteChainRig(t, []int{2, 2})
			play(t, s, "d0", "fd0", gauss.Samples)
			if err := s.Append(&pulse.Barrier{}); err != nil {
				t.Fatal(err)
			}
			play(t, s, "c01", "fc01", gauss.Samples)
			sp, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			return ex, sp
		}, []string{"site_tick", "open_stretch", "site_tick", "site_tick", "dense_tick", "open_stretch", "dense_tick", "site_tick"}},
		{"sc-2", resonant(twoTransmonOpenRig(t), func(s *pulse.Schedule) {
			play(t, s, "d0", "f0", flat(0.5, 256))
			play(t, s, "d0", "f0", flat(0.5, 64))
			play(t, s, "d0", "f0", flat(0, 100))
			play(t, s, "d0", "f0", gauss.Samples)
		}), []string{"stretch_map", "open_stretch", "open_stretch", "site_tick", "open_stretch", "site_tick"}},
		{"n = 27", resonant(openRig(t, []int{3, 3, 3}), func(s *pulse.Schedule) {
			play(t, s, "d0", "f0", flat(0.5, 256))
		}), []string{"open_stretch"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ex, sp := c.prog()
			p, err := ex.Prepare(sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := planKinds(p); !slices.Equal(got, c.want) {
				t.Fatalf("plan %v, want %v", got, c.want)
			}
			var sum int64
			for _, n := range p.Ticks() {
				sum += n
			}
			next := int64(0)
			for _, s := range p.steps {
				if s.t0 != next || s.n <= 0 {
					t.Fatalf("step %+v does not start where the last ended (%d)", s, next)
				}
				next += s.n
			}
			if sum != p.makespan || next != p.makespan {
				t.Fatalf("the plan counts %d ticks and covers %d, the makespan is %d", sum, next, p.makespan)
			}
		})
	}
}

// bindProgram is a template's program on the sc-2 shape written at
// (samples, hz), and its slots: a Gaussian on d0 whose samples are slot 0,
// then a SetFrequency on f1 whose Hz is value 0 and a square on d1.
func bindProgram(t *testing.T, samples []complex128, hz float64) (*pulse.ScheduledProgram, map[pulse.Instruction]pulse.Slot) {
	var d0, f1 pulse.Instruction
	sp := resonantProgram(t, func(s *pulse.Schedule) {
		w, err := waveform.New("g", samples)
		if err != nil {
			t.Fatal(err)
		}
		d0, f1 = &pulse.Play{Port: "d0", Frame: "f0", Waveform: w}, &pulse.FrameUpdate{Port: "d1", Frame: "f1", Kind: pulse.SetFrequency, Hz: hz}
		for _, in := range []pulse.Instruction{d0, f1} {
			if err := s.Append(in); err != nil {
				t.Fatal(err)
			}
		}
		playConst(t, s, "d1", "f1", 0.4, 200)
	})
	return sp, map[pulse.Instruction]pulse.Slot{d0: {Samples: 0, Hz: -1, Phase: -1}, f1: {Samples: -1, Hz: 0, Phase: -1}}
}

// TestBindPlansLikePrepare: a bound program's plan is the plan Prepare
// makes of the same values written as literals — steps and tick counts —
// and it runs to the same ρ (sc-2) or ψ (the same shape closed), bit for
// bit, for bindings that change the plan's structure: a zero-amplitude
// Gaussian, an Hz slot that moves d1's detuning off 0, and samples that
// repeat. A binding that keeps the structure shares the template's steps,
// and Bind makes its two objects (the program and its plays) and no more.
func TestBindPlansLikePrepare(t *testing.T) {
	gauss, err := waveform.Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	scaled := func(a complex128) []complex128 {
		w, err := gauss.Scale(a)
		if err != nil {
			t.Fatal(err)
		}
		return w.Samples
	}
	stairs := make([]complex128, 24)
	for i := range stairs {
		stairs[i] = complex(0.1*float64(1+i/6), -0.05)
	}
	closed := func() *Executor {
		dims := []int{3, 3}
		drift := TransmonDrift(dims, 0, 0, -220e6).Add(TransmonDrift(dims, 1, 0, -210e6))
		m, err := NewSystemModel(dims, drift, []*ControlChannel{
			TransmonDriveChannel("d0", dims, 0, 40e6, 5.0e9),
			TransmonDriveChannel("d1", dims, 1, 40e6, 5.1e9),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewExecutor(m)
	}
	for name, ex := range map[string]*Executor{"sc-2": twoTransmonOpenRig(t), "closed": closed()} {
		tpl, err := ex.Prepare(bindProgram(t, gauss.Samples, 5.1e9))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			samples []complex128
			hz      float64
			shared  bool
		}{
			{"same structure", scaled(0.3), 5.1e9, true},
			{"zero amplitude", scaled(0), 5.1e9, false},
			{"detuned", scaled(0.3), 5.1e9 + 2e6, false},
			{"repeated samples", stairs, 5.1e9, false},
		} {
			what := fmt.Sprintf("%s, %s", name, c.name)
			bound, err := tpl.Bind(pulse.Binding{Samples: [][]complex128{c.samples}, Values: []float64{c.hz}})
			if err != nil {
				t.Fatal(err)
			}
			sp, _ := bindProgram(t, c.samples, c.hz)
			want, err := ex.Prepare(sp, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bound.steps, want.steps) || bound.Ticks() != want.Ticks() {
				t.Fatalf("%s: bound plan %v %v, prepared %v %v", what, planKinds(bound), bound.Ticks(), planKinds(want), want.Ticks())
			}
			if shares := &bound.steps[0] == &tpl.steps[0]; shares != c.shared {
				t.Fatalf("%s: the bound plan shares the template's steps: %v, want %v", what, shares, c.shared)
			}
			got, err := runEvolved(bound, ExecOptions{Shots: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runEvolved(want, ExecOptions{Shots: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, what, got, ref)
		}
		b := pulse.Binding{Samples: [][]complex128{scaled(0.5)}, Values: []float64{5.1e9}}
		if n := testing.AllocsPerRun(100, func() { _, _ = tpl.Bind(b) }); n != 2 {
			t.Fatalf("%s: Bind makes %v objects, want 2", name, n)
		}
	}
}

// TestPreparedPlanRace: eight goroutines run one prepared program and bind
// and run points of one template at once; every run ends in the ρ a lone
// run of the same program reaches. A plan is only read, and a bound plan
// shares its template's steps or owns its own.
func TestPreparedPlanRace(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	gauss, err := waveform.Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 24)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := ex.Prepare(bindProgram(t, gauss.Samples, 5.1e9))
	if err != nil {
		t.Fatal(err)
	}
	points := []pulse.Binding{
		{Samples: [][]complex128{gauss.Samples}, Values: []float64{5.1e9}},
		{Samples: [][]complex128{make([]complex128, 24)}, Values: []float64{5.1e9}},
		{Samples: [][]complex128{gauss.Samples}, Values: []float64{5.1e9 - 3e6}},
	}
	run := func(p *Program) *Density {
		res, err := runEvolved(p, ExecOptions{Shots: 1})
		if err != nil {
			t.Error(err)
			return nil
		}
		return res.FinalDensity.Density
	}
	bind := func(b pulse.Binding) *Program {
		p, err := tpl.Bind(b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var want []*Density
	for _, b := range points {
		want = append(want, run(bind(b)))
	}
	wantTpl := run(tpl)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 {
				k := (g + i) % len(points)
				p, err := tpl.Bind(points[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got := run(p); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d: point %d ran to a different ρ", g, k)
				}
				if got := run(tpl); !reflect.DeepEqual(got, wantTpl) {
					t.Errorf("goroutine %d: the prepared program ran to a different ρ", g)
				}
			}
		}()
	}
	wg.Wait()
}
