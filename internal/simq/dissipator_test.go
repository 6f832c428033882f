package simq

import (
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
			if ref := LindbladRHS(noH, want.Rho, cs); !rhs.Equal(ref, 1e-12*rateSum) {
				t.Fatalf("dims %v %s: RHS off by %g (rates sum to %g)", dims, ch.name, rhs.Sub(ref).MaxAbs(), rateSum)
			}

			const dt = 50e-9
			for step := 0; step < 200; step++ {
				s.dissipate(model.collapse, got.Rho, dt)
				LindbladStepRK4(noH, want, cs, dt)
			}
			if !got.Rho.Equal(want.Rho, 1e-12) {
				t.Fatalf("dims %v %s: ρ off by %g after 200 steps", dims, ch.name, got.Rho.Sub(want.Rho).MaxAbs())
			}
			if tr := got.Trace(); math.Abs(tr-1) > 1e-12 {
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

// TestDensityTickAllocatesNothing: the dissipator step, and one whole
// driven tick of the density engine (load H, Taylor conjugation,
// dissipator), allocate nothing once the run's scratch exists.
func TestDensityTickAllocatesNothing(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	cs := ex.Model.collapse
	eng := ex.newFastEngine(true, 1e-9)
	rho := randomDensity(rand.New(rand.NewSource(3)), ex.Model.Dims)
	active := []playEvent{{ch: ex.Model.Channels["d0"]}, {ch: ex.Model.Channels["d1"]}}
	chis := []complex128{complex(0.3, 0.1), complex(-0.2, 0.4)}
	tick := func() {
		eng.loadHam(active, chis)
		eng.mat.conjugate(eng.ham, rho.Rho, eng.dt)
		eng.dissipate(cs, rho, eng.dt)
	}
	tick() // grows ham.ops to its steady-state capacity
	if n := testing.AllocsPerRun(100, func() { eng.mat.dissipate(cs, rho.Rho, eng.dt) }); n != 0 {
		t.Fatalf("dissipator step allocates %v objects", n)
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Fatalf("driven density tick allocates %v objects", n)
	}
	if err := rho.CheckPhysical(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorWarmRunsMatchCold: an executor's second run of a program is
// served from its propagator cache — square pulses and the idle gap
// between them — and returns exactly what a cold executor returns; the
// sample period is part of the key, so a program on another clock does
// not pick up the first one's propagators.
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
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	run := func(ex *Executor, sp *pulse.ScheduledProgram) *ExecResult {
		res, err := ex.Run(sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := twoTransmonOpenRig(t)
	fast, slow := program(1e9), program(0.5e9)

	cold := run(warm, fast)
	if cold.PropCacheMisses != 2 || cold.PropCacheHits != 1 {
		t.Fatalf("cold run: %d misses, %d hits; want the pulse and the gap to miss once and the second pulse to hit",
			cold.PropCacheMisses, cold.PropCacheHits)
	}
	if want := int64(40 + 1 + 40); cold.DissipatorSteps != want {
		t.Fatalf("cold run: %d dissipator steps, want %d", cold.DissipatorSteps, want)
	}
	again := run(warm, fast)
	if again.PropCacheMisses != 0 || again.PropCacheHits != 3 {
		t.Fatalf("warm run: %d misses, %d hits; want 0 and 3", again.PropCacheMisses, again.PropCacheHits)
	}
	if !again.FinalDensity.Rho.Equal(cold.FinalDensity.Rho, 0) {
		t.Fatal("warm run differs from the cold run of the same executor")
	}

	other := run(warm, slow)
	if other.PropCacheMisses != 2 {
		t.Fatalf("program on another clock: %d misses, want 2", other.PropCacheMisses)
	}
	if fresh := run(twoTransmonOpenRig(t), slow); !other.FinalDensity.Rho.Equal(fresh.FinalDensity.Rho, 0) {
		t.Fatal("warm executor differs from a fresh one on the second clock")
	}
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
// stretch with decoherence, varying ticks, an idle segment and the exact
// reference — leaves ρ exactly Hermitian, its lower triangle the bitwise
// conjugate of its upper one and its diagonal real, on the sc-2 shape.
func TestDensityEngineKeepsRhoHermitian(t *testing.T) {
	for _, c := range []struct {
		name  string
		fill  func(t *testing.T, s *pulse.Schedule)
		exact bool
	}{
		{"constant-stretch", func(t *testing.T, s *pulse.Schedule) {
			playConst(t, s, "d0", "f0", 0.5, 64)
			playConst(t, s, "d1", "f1", 0.4, 64)
		}, false},
		{"varying-tick", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 48)
			playGaussian(t, s, "d1", "f1", 0.4, 48)
		}, false},
		{"idle", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 48)
			if err := s.Append(&pulse.Delay{Port: "d0", Samples: 300}); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"exact", func(t *testing.T, s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 16)
			playGaussian(t, s, "d1", "f1", 0.4, 16)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sp := twoPortProgram(t, func(s *pulse.Schedule) { c.fill(t, s) })
			res, err := twoTransmonOpenRig(t).Run(sp, ExecOptions{Shots: 1, exact: c.exact})
			if err != nil {
				t.Fatal(err)
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
