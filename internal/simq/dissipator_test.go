package simq

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
)

// randomDensity draws a full-rank physical ρ = AA†/tr(AA†).
func randomDensity(rng *rand.Rand, dims []int) *Density {
	d := NewDensity(dims)
	n := d.Dim()
	a := linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	d.Rho = a.Mul(a.Dagger())
	d.Rho = d.Rho.Scale(1 / d.Rho.Trace())
	return d
}

// dissipatorRHS fills out with Σ γ_k·L_k ρ L_k† − ½(Dρ + ρD), the
// dissipative part of the Lindblad equation: one sparse apply of the
// generator to vec(ρ), without allocating. out and rho must not alias.
//
//mqss:hotloop
func (s *matStepper) dissipatorRHS(cs *collapseSet, out, rho *linalg.Matrix) {
	x, cols, vals := rho.Data, cs.cols, cs.vals
	lo := 0
	for r := range out.Data {
		hi := cs.rowStart[r+1]
		var sum complex128
		for k := lo; k < hi; k++ {
			sum += vals[k] * x[cols[k]]
		}
		out.Data[r] = sum
		lo = hi
	}
}

// TestDissipatorMatchesDenseReference pins the production dissipator — the
// model's sparse collapse precompute stepped on matStepper scratch —
// against the dense reference on random physical states: the generator
// entry by entry, then 200 RK4 steps.
func TestDissipatorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	channels := []struct {
		name   string
		t1, t2 float64
	}{{"T1", 30e-6, 0}, {"T2", 0, 20e-6}, {"T1+T2", 30e-6, 20e-6}}
	for _, dims := range [][]int{{2}, {3, 3}, {2, 3, 2}} {
		for _, ch := range channels {
			var cs []Collapse
			var rateSum float64
			for site := range dims {
				cs = append(cs, RelaxationCollapses(dims, site, ch.t1, ch.t2)...)
			}
			for _, c := range cs {
				rateSum += c.Rate
			}
			model, err := NewSystemModel(dims, nil, nil, cs)
			if err != nil {
				t.Fatal(err)
			}
			got := randomDensity(rng, dims)
			want := got.Clone()
			n := got.Dim()
			s := newMatStepper(n)

			rhs, noH := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			s.dissipatorRHS(model.collapse, rhs, got.Rho)
			// Entries of the generator scale with the rates (1/s), so the
			// 1e-12 is relative to them.
			if ref := LindbladRHS(noH, want.Rho, cs); !(rhs.Sub(ref).MaxAbs() <= 1e-12*rateSum) {
				t.Fatalf("dims %v %s: RHS off by %g (rates sum to %g)", dims, ch.name, rhs.Sub(ref).MaxAbs(), rateSum)
			}

			const dt = 50e-9
			m := model.collapse.stepMap(dt)
			for step := 0; step < 200; step++ {
				s.dissipate(m, got.Rho)
				LindbladStepRK4(noH, want, cs, dt)
			}
			if !(got.Rho.Sub(want.Rho).MaxAbs() <= 1e-12) {
				t.Fatalf("dims %v %s: ρ off by %g after 200 steps", dims, ch.name, got.Rho.Sub(want.Rho).MaxAbs())
			}
			if tr := got.Trace(); !(math.Abs(tr-1) <= 1e-12) {
				t.Fatalf("dims %v %s: trace %.15g", dims, ch.name, tr)
			}
			if err := got.CheckPhysical(1e-9); err != nil {
				t.Fatalf("dims %v %s: %v", dims, ch.name, err)
			}
		}
	}
}

// twoTransmonOpenRig is the sc-2 shape: two d=3 transmons with
// anharmonic drift, one drive each, T1/T2 on both.
func twoTransmonOpenRig(t testing.TB) *Executor {
	t.Helper()
	dims := []int{3, 3}
	drift := TransmonDrift(dims, 0, 0, -220e6).Add(TransmonDrift(dims, 1, 0, -210e6))
	cs := append(RelaxationCollapses(dims, 0, 30e-6, 20e-6), RelaxationCollapses(dims, 1, 25e-6, 18e-6)...)
	model, err := NewSystemModel(dims, drift, []*ControlChannel{
		TransmonDriveChannel("d0", dims, 0, 40e6, 5.0e9),
		TransmonDriveChannel("d1", dims, 1, 40e6, 5.1e9),
	}, cs)
	if err != nil {
		t.Fatal(err)
	}
	return NewExecutor(model)
}

// openRig is an open transmon chain of the given level counts: site i
// anharmonic by −220 MHz, driven on port di at 5.0 + 0.1·i GHz (so
// resonantProgram's squares are constant stretches), T1 = 30 µs and
// T2 = 20 µs.
func openRig(t testing.TB, dims []int) *Executor {
	t.Helper()
	drift := TransmonDrift(dims, 0, 0, -220e6)
	var chans []*ControlChannel
	var cs []Collapse
	for i := range dims {
		if i > 0 {
			drift = drift.Add(TransmonDrift(dims, i, 0, -220e6))
		}
		chans = append(chans, TransmonDriveChannel(fmt.Sprintf("d%d", i), dims, i, 40e6, 5.0e9+0.1e9*float64(i)))
		cs = append(cs, RelaxationCollapses(dims, i, 30e-6, 20e-6)...)
	}
	model, err := NewSystemModel(dims, drift, chans, cs)
	if err != nil {
		t.Fatal(err)
	}
	return NewExecutor(model)
}

// oneQubitOpenRig is the tiny-1 shape: one d=2 site with no drift, a
// 250 MHz drive and T1 = T2 = 1 ms.
func oneQubitOpenRig(t testing.TB) *Executor {
	t.Helper()
	dims := []int{2}
	model, err := NewSystemModel(dims, nil, []*ControlChannel{
		TransmonDriveChannel("d0", dims, 0, 250e6, 5.0e9),
	}, RelaxationCollapses(dims, 0, 1e-3, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	return NewExecutor(model)
}

// resonantProgram is twoPortProgram with each frame on its channel's
// carrier in twoTransmonOpenRig (5.0 and 5.1 GHz), so a square pulse on
// either port, or both, is a constant-χ stretch.
func resonantProgram(t testing.TB, fill func(s *pulse.Schedule)) *pulse.ScheduledProgram {
	t.Helper()
	s := pulse.NewSchedule()
	for i, id := range []string{"d0", "d1"} {
		if err := s.AddPort(&pulse.Port{ID: id, Kind: pulse.PortDrive, Sites: []int{i},
			SampleRateHz: 1e9, MaxAmplitude: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame(fmt.Sprintf("f%d", i), 5.0e9+0.1e9*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	fill(s)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tickRig is what one driven tick of the density engine reads: the run's
// scratch, the one-tick dissipator step, a random ρ and a fixed χ on each
// drive channel d0, d1, … of the executor's model.
type tickRig struct {
	ex     *Executor
	eng    *fastEngine
	step   *stepMap
	rho    *Density
	active []playEvent
	chis   []complex128
}

func newTickRig(ex *Executor) *tickRig {
	r := &tickRig{ex: ex, eng: ex.newFastEngine(true, 1e-9)}
	r.step = ex.dissipatorStep(r.eng, r.eng.dt)
	r.rho = randomDensity(rand.New(rand.NewSource(3)), ex.Model.Dims)
	for i, chi := range []complex128{complex(0.3, 0.1), complex(-0.2, 0.4)} {
		if ch := ex.Model.Channels[fmt.Sprintf("d%d", i)]; ch != nil {
			r.active = append(r.active, playEvent{ch: ch})
			r.chis = append(r.chis, chi)
		}
	}
	return r
}

// varyingTick is one tick of a varying envelope: load H, build and conjugate
// by its Taylor propagator, step the dissipator.
func (r *tickRig) varyingTick() {
	r.eng.loadHam(r.active, r.chis)
	r.eng.mat.propagator(r.eng.ham, r.eng.dt)
	r.eng.mat.conjugateWith(r.eng.mat.u, r.rho.Rho)
	r.eng.dissipate(r.step, r.rho)
}

// stretch is a constant stretch of run ticks at χ = chi on the rig's first
// drive, as a run walks a short open one (kindOpen): its propagator built
// (or looked up), then per tick the conjugation by it and the dissipator
// step. It leaves chi as the rig's χ there.
func (r *tickRig) stretch(chi complex128, run int) {
	r.chis[0] = chi
	u := r.ex.propagator(r.eng, r.active, r.chis, 1)
	for range run {
		r.eng.mat.conjugateWith(u, r.rho.Rho)
		r.eng.dissipate(r.step, r.rho)
	}
}

// separableTick is one tick of a varying envelope that drives single
// sites only: each site's factor built and applied leg by leg, then the
// dissipator step.
func (r *tickRig) separableTick() {
	r.ex.conjugateSites(r.eng, r.active, r.chis, r.rho.Rho)
	r.eng.dissipate(r.step, r.rho)
}

// TestDensityTickAllocatesNothing: the dissipator step, one whole driven
// tick of the density engine (load H, Taylor conjugation, dissipator; at
// the tiny-1 shape the closed-form conjugation), a two-tick constant
// stretch at the tiny-1 shape at a χ never played before (a sweep point's
// Gaussian middle pair: its closed-form propagator is built in the
// engine's scratch, not cached), a tick that drives both sites of the sc-2
// shape and so is applied site by site, and the apply of a long constant
// stretch's map allocate nothing once the run's scratch exists.
func TestDensityTickAllocatesNothing(t *testing.T) {
	r := newTickRig(twoTransmonOpenRig(t))
	r.varyingTick() // grows ham.ops to its steady-state capacity
	if n := testing.AllocsPerRun(100, func() { r.eng.mat.dissipate(r.step, r.rho.Rho) }); n != 0 {
		t.Fatalf("dissipator step allocates %v objects", n)
	}
	if n := testing.AllocsPerRun(100, r.varyingTick); n != 0 {
		t.Fatalf("driven density tick allocates %v objects", n)
	}
	if !r.ex.factors(r.active, []int32{0, 1}, r.chis) {
		t.Fatal("a tick driving both sites of the sc-2 shape does not factor")
	}
	r.separableTick() // grows each site's ham.ops
	if n := testing.AllocsPerRun(100, r.separableTick); n != 0 {
		t.Fatalf("separable density tick allocates %v objects", n)
	}
	d2 := newTickRig(oneQubitOpenRig(t))
	d2.varyingTick()
	if n := testing.AllocsPerRun(100, d2.varyingTick); n != 0 {
		t.Fatalf("driven density tick at d = 2 allocates %v objects", n)
	}
	chi := d2.chis[0]
	if n := testing.AllocsPerRun(100, func() { chi += 1e-6; d2.stretch(chi, 2) }); n != 0 {
		t.Fatalf("fresh two-tick stretch at d = 2 allocates %v objects", n)
	}
	if n := d2.ex.props.size(); n != 0 {
		t.Fatalf("fresh stretches at d = 2 left %d propagators in the cache, want none", n)
	}
	if err := d2.rho.CheckPhysical(1e-9); err != nil {
		t.Fatal(err)
	}
	m := r.ex.stretchMap(r.eng, r.active, r.chis, r.step, 256, nil)
	if n := testing.AllocsPerRun(100, func() { r.eng.mat.applyMap(m, r.rho.Rho) }); n != 0 {
		t.Fatalf("stretch map apply allocates %v objects", n)
	}
	if err := r.rho.CheckPhysical(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestLongDensityRunEndsWithoutSubnormals: over milliseconds the
// coherences of the excited levels decay through the subnormal range,
// where every step on them is many times slower. A 4.096 ms idle stretch
// after a drive that populates level 2 of both transmons (8,192 dissipator
// sub-steps, so the last is followed by a flush) ends physical — its idle
// propagator is exact at any length — with no subnormal part in ρ.
func TestLongDensityRunEndsWithoutSubnormals(t *testing.T) {
	sp := resonantProgram(t, func(s *pulse.Schedule) {
		playConst(t, s, "d0", "f0", 0.9, 40)
		playConst(t, s, "d1", "f1", 0.7, 40)
		if err := s.Append(&pulse.Delay{Port: "d0", Samples: 4_096_000}); err != nil {
			t.Fatal(err)
		}
	})
	res, err := execEvolved(twoTransmonOpenRig(t), sp, ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FinalDensity.CheckPhysical(1e-9); err != nil {
		t.Fatal(err)
	}
	rho := res.FinalDensity.Rho
	var zeros int
	for i, v := range rho.Data {
		for _, x := range []float64{real(v), imag(v)} {
			if x != 0 && math.Abs(x) < 0x1p-1022 {
				t.Fatalf("ρ entry %d = %g has a subnormal part", i, v)
			}
			if x == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no part of ρ decayed to zero: the run is too short to reach the subnormal range")
	}
}

// TestExecutorWarmRunsMatchCold: an executor's second run of a program is
// served from its memos — square pulses, the idle gap between them and the
// stretch map of a 256-tick square — and returns exactly
// what its cold run and a fresh executor return; the sample period is part
// of the key, so a program on another clock does not pick up the first
// one's propagators or maps.
func TestExecutorWarmRunsMatchCold(t *testing.T) {
	program := func(rateHz float64) *pulse.ScheduledProgram {
		s := pulse.NewSchedule()
		for _, id := range []string{"d0", "d1"} {
			if err := s.AddPort(&pulse.Port{ID: id, Kind: pulse.PortDrive, Sites: []int{0},
				SampleRateHz: rateHz, MaxAmplitude: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddFrame(pulse.NewFrame("f0", 5.0e9)); err != nil {
			t.Fatal(err)
		}
		playConst(t, s, "d0", "f0", 0.5, 40)
		if err := s.Append(&pulse.Delay{Port: "d0", Samples: 300}); err != nil {
			t.Fatal(err)
		}
		playConst(t, s, "d0", "f0", 0.5, 40)
		playConst(t, s, "d0", "f0", 0.3, 256)
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	run := func(ex *Executor, sp *pulse.ScheduledProgram) *evolved {
		res, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := twoTransmonOpenRig(t)
	fast, slow := program(1e9), program(0.5e9)

	cold := run(warm, fast)
	if cold.PropCacheMisses != 3 || cold.PropCacheHits != 1 {
		t.Fatalf("cold run: %d misses, %d hits; want the pulse, the gap and the long square's map to miss once and the second pulse to hit",
			cold.PropCacheMisses, cold.PropCacheHits)
	}
	if want := int64(40 + 1 + 40 + 256); cold.DissipatorSteps != want {
		t.Fatalf("cold run: %d dissipator steps, want %d", cold.DissipatorSteps, want)
	}
	if warm.maps.size() != 1 {
		t.Fatalf("cold run built %d stretch maps, want 1", warm.maps.size())
	}
	again := run(warm, fast)
	if again.PropCacheMisses != 0 || again.PropCacheHits != 4 {
		t.Fatalf("warm run: %d misses, %d hits; want 0 and 4", again.PropCacheMisses, again.PropCacheHits)
	}
	sameRun(t, "warm vs cold run of one executor", again, cold)
	sameRun(t, "cold run vs a fresh executor", run(twoTransmonOpenRig(t), fast), cold)

	other := run(warm, slow)
	if other.PropCacheMisses != 3 {
		t.Fatalf("program on another clock: %d misses, want 3", other.PropCacheMisses)
	}
	sameRun(t, "warm executor vs a fresh one on the second clock", other, run(twoTransmonOpenRig(t), slow))
}

// hermitianDefects counts the entries of m that break exact Hermiticity: an
// entry below the diagonal that is not, bit for bit, the conjugate of its
// mirror, or a diagonal entry with an imaginary part. It also reports
// whether any entry off the diagonal is non-zero.
func hermitianDefects(m *linalg.Matrix) (defects int, coherent bool) {
	n := m.Rows
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < n; i++ {
		if imag(m.At(i, i)) != 0 {
			defects++
		}
		for j := i + 1; j < n; j++ {
			up, low := m.At(i, j), cmplx.Conj(m.At(j, i))
			if !same(real(up), real(low)) || !same(imag(up), imag(low)) {
				defects++
			}
			coherent = coherent || up != 0
		}
	}
	return defects, coherent
}

// TestDensityEngineKeepsRhoHermitian: every density path — a constant
// stretch with decoherence stepped per tick and one of 256 ticks applied as
// its stretch map, varying ticks, an idle segment and the exact
// reference — leaves ρ exactly Hermitian, its lower triangle the bitwise
// conjugate of its upper one and its diagonal real, on the sc-2 shape.
func TestDensityEngineKeepsRhoHermitian(t *testing.T) {
	for _, c := range []struct {
		name  string
		fill  func(t *testing.T, s *pulse.Schedule)
		exact bool
		maps  int // stretch maps the run builds
	}{
		{"constant-stretch", func(t *testing.T, s *pulse.Schedule) {
			playConst(t, s, "d0", "f0", 0.5, 64)
			playConst(t, s, "d1", "f1", 0.4, 64)
		}, false, 0},
		{"stretch-map", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 48)
			playConst(t, s, "d0", "f0", 0.5, 256)
		}, false, 1},
		{"varying-tick", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 48)
			playGaussian(t, s, "d1", "f1", 0.4, 48)
		}, false, 0},
		{"idle", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 48)
			if err := s.Append(&pulse.Delay{Port: "d0", Samples: 300}); err != nil {
				t.Fatal(err)
			}
		}, false, 0},
		{"exact", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 16)
			playGaussian(t, s, "d1", "f1", 0.4, 16)
		}, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := twoPortProgram(t, func(s *pulse.Schedule) { c.fill(t, s) })
			ex := twoTransmonOpenRig(t)
			var res *evolved
			var err error
			if c.exact {
				res, err = execExact(ex, sp)
			} else {
				res, err = execEvolved(ex, sp, ExecOptions{Shots: 1})
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := ex.maps.size(); n != c.maps {
				t.Fatalf("the run built %d stretch maps, want %d", n, c.maps)
			}
			defects, coherent := hermitianDefects(res.FinalDensity.Rho)
			if !coherent {
				t.Fatal("the final ρ has no coherences to check")
			}
			if defects != 0 {
				t.Fatalf("%d entries of the final ρ break exact Hermiticity", defects)
			}
		})
	}
}
