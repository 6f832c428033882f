package simq

import (
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/testutil"
	"mqsspulse/internal/waveform"
)

// randHermitianM builds a random Hermitian matrix with entries of the given
// magnitude scale (rad/s for Hamiltonians).
func randHermitianM(rng *rand.Rand, n int, scale float64) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(scale*rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, complex(real(v), -imag(v)))
		}
	}
	return m
}

// TestVecStepperMatchesExpI drives the scaled-Taylor stepper against the
// exact eigendecomposition propagator on random Hermitian Hamiltonians,
// including norms large enough to force sub-stepping. The fast path must
// preserve the norm and track the exact state to well below the 1e-9
// fidelity budget of the executor-level tests.
func TestVecStepperMatchesExpI(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dt := 1e-9
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(7)
		scale := math.Pow(10, 7+3*rng.Float64()) // 1e7..1e10 rad/s
		h := randHermitianM(rng, n, scale)
		ham := &tickHam{drift: linalg.NewSparse(h)}

		psi := make([]complex128, n)
		for i := range psi {
			psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		testutil.Normalize(psi)
		want := append([]complex128(nil), psi...)

		stepper := newVecStepper(n)
		steps := 1 + rng.Intn(20)
		u, err := linalg.ExpI(h, dt)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			stepper.step(ham, psi, dt)
			want = testutil.MulVec(u, want)
		}
		if norm := linalg.Norm2(psi); !(math.Abs(norm-1) <= 1e-11) {
			t.Fatalf("trial %d: norm drifted to %.15g", trial, norm)
		}
		d := linalg.Dot(want, psi)
		fid := real(d)*real(d) + imag(d)*imag(d)
		if !(fid >= 1-1e-10) {
			t.Fatalf("trial %d (n=%d scale=%.3g steps=%d): fidelity %.15g", trial, n, scale, steps, fid)
		}
	}
}

// TestMatStepperMatchesExpI pins the density-engine conjugation stepper
// against exact UρU†, three trials at each n from 2 to 6: at n = 2 the
// tick is the closed form without its scalar phase and the conjugation is
// spelled out (conjugate2), so a conjugation by U for U†, or one that
// leaves the corner below the diagonal unmirrored, fails here.
func TestMatStepperMatchesExpI(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dt := 1e-9
	for trial := 0; trial < 15; trial++ {
		n := 2 + trial%5
		h := randHermitianM(rng, n, 1e9)
		ham := &tickHam{drift: linalg.NewSparse(h)}

		// Random pure-state density matrix.
		psi := make([]complex128, n)
		for i := range psi {
			psi[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		testutil.Normalize(psi)
		rho := testutil.Outer(psi, psi)
		want := rho.Clone()

		u, err := linalg.ExpI(h, dt)
		if err != nil {
			t.Fatal(err)
		}
		stepper := newMatStepper(n)
		for k := 0; k < 10; k++ {
			stepper.propagator(ham, dt)
			stepper.conjugateWith(stepper.u, rho)
			want = u.Mul(want).Mul(u.Dagger())
		}
		if d := rho.Sub(want).MaxAbs(); !(d <= 1e-11) {
			t.Fatalf("trial %d (n=%d): density conjugation off by %g", trial, n, d)
		}
	}
}

// randomDriveRig builds a schedule + executor over random Hermitian drift
// and a random (fully dense, non-sparse) raising operator so the property
// test covers operators the sparse path cannot specialize.
func randomDriveRig(t *testing.T, rng *rand.Rand, dims []int, collapses []Collapse) (*pulse.Schedule, *Executor) {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	s := pulse.NewSchedule()
	if err := s.AddPort(&pulse.Port{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0},
		SampleRateHz: 1e9, MaxAmplitude: 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFrame(pulse.NewFrame("f0", 5.0e9)); err != nil {
		t.Fatal(err)
	}
	op := linalg.NewMatrix(n, n)
	for i := range op.Data {
		op.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	drift := randHermitianM(rng, n, 1e8)
	model, err := NewSystemModel(dims, drift, []*ControlChannel{{
		PortID: "d0", OpRaise: op, RabiHz: 1e6 + 40e6*rng.Float64(), CarrierFreqHz: 5.0e9,
	}}, collapses)
	if err != nil {
		t.Fatal(err)
	}
	return s, NewExecutor(model)
}

// appendRandomProgram appends a random mix of plays (Gaussian, constant,
// flat-top), delays, and frame ops, exercising both the matrix-free and
// the cached-stretch paths.
func appendRandomProgram(t *testing.T, rng *rand.Rand, s *pulse.Schedule) {
	t.Helper()
	nops := 2 + rng.Intn(5)
	for i := 0; i < nops; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			w, err := waveform.Gaussian{Amplitude: 0.2 + 0.7*rng.Float64(),
				SigmaFrac: 0.15 + 0.1*rng.Float64()}.Materialize("g", 8+rng.Intn(40))
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w})
		case 2:
			w, err := waveform.Constant{Amplitude: 0.1 + 0.8*rng.Float64()}.Materialize("c", 8+rng.Intn(60))
			if err != nil {
				t.Fatal(err)
			}
			_ = s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w})
		case 3:
			_ = s.Append(&pulse.Delay{Port: "d0", Samples: int64(1 + rng.Intn(200))})
		case 4:
			_ = s.Append(&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftPhase, Phase: rng.Float64() * 6})
			if rng.Intn(2) == 0 {
				_ = s.Append(&pulse.FrameUpdate{Port: "d0", Frame: "f0", Kind: pulse.ShiftFrequency, Hz: (rng.Float64() - 0.5) * 40e6})
			}
		}
	}
}

// TestFastIntegratorMatchesExactState is the headline property test: for
// random drives, drifts, envelopes, and frame programs, the fast path's
// final state must match the exact eigendecomposition path with fidelity
// ≥ 1−1e−9 and unit norm — and amplitude by amplitude within 1e-9, so
// with its global phase, which the state-vector engine keeps on every
// path: the spectral shift's per tick, and at n = 2 the closed form's
// e^{−iμt} on stretches and idle gaps.
func TestFastIntegratorMatchesExactState(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 12; trial++ {
		dims := [][]int{{2}, {3}, {4}, {2, 2}, {3, 3}}[rng.Intn(5)]
		s, ex := randomDriveRig(t, rng, dims, nil)
		appendRandomProgram(t, rng, s)
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := execExact(ex, sp)
		if err != nil {
			t.Fatal(err)
		}
		if norm := fast.FinalState.Norm(); !(math.Abs(norm-1) <= 1e-9) {
			t.Fatalf("trial %d: fast-path norm %.12g", trial, norm)
		}
		fid := Fidelity(fast.FinalState.State, exact.FinalState.State)
		if !(fid >= 1-1e-9) {
			t.Fatalf("trial %d (dims=%v): fast vs exact fidelity %.15g", trial, dims, fid)
		}
		var d float64
		for i, a := range fast.FinalState.Amp {
			d = max(d, cmplx.Abs(a-exact.FinalState.Amp[i]))
		}
		if !(d <= 1e-9) {
			t.Fatalf("trial %d (dims=%v): fast vs exact amplitudes off by %g", trial, dims, d)
		}
	}
}

// TestFastIntegratorMatchesExactDensity pins the density engine: random
// decoherent programs must produce the same ρ through both integrators.
// So do 32 eight-sample Gaussians at fresh amplitudes on the tiny-1 shape,
// as a Rabi sweep plays them on one executor: each Gaussian's equal middle
// pair is a two-tick constant stretch, whose closed-form propagator is
// built where it is used and never enters the propagator cache.
func TestFastIntegratorMatchesExactDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 6; trial++ {
		dims := [][]int{{2}, {3}, {2, 2}}[rng.Intn(3)]
		cs := RelaxationCollapses(dims, 0, 30e-6, 20e-6)
		s, ex := randomDriveRig(t, rng, dims, cs)
		appendRandomProgram(t, rng, s)
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := execExact(ex, sp)
		if err != nil {
			t.Fatal(err)
		}
		if fast.FinalDensity == nil || exact.FinalDensity == nil {
			t.Fatal("density engine expected")
		}
		if !(fast.FinalDensity.Rho.Sub(exact.FinalDensity.Rho).MaxAbs() <= 1e-9) {
			diff := fast.FinalDensity.Rho.Sub(exact.FinalDensity.Rho).MaxAbs()
			t.Fatalf("trial %d (dims=%v): fast vs exact density off by %g", trial, dims, diff)
		}
		if err := fast.FinalDensity.CheckPhysical(1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}

	tiny := oneQubitOpenRig(t)
	for i := range 32 {
		amp := 0.05 + 0.9*rng.Float64()
		w, err := waveform.Gaussian{Amplitude: amp, SigmaFrac: 0.2}.Materialize("g", 8)
		if err != nil {
			t.Fatal(err)
		}
		if w.Samples[3] != w.Samples[4] {
			t.Fatalf("amplitude %g: the Gaussian has no equal middle pair", amp)
		}
		sp := resonantProgram(t, func(s *pulse.Schedule) {
			if err := s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w}); err != nil {
				t.Fatal(err)
			}
		})
		fast, err := execEvolved(tiny, sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := execExact(tiny, sp)
		if err != nil {
			t.Fatal(err)
		}
		if d := fast.FinalDensity.Rho.Sub(exact.FinalDensity.Rho).MaxAbs(); !(d <= 1e-9) {
			t.Fatalf("tiny-1 Gaussian %d (amplitude %g): fast vs exact density off by %g", i, amp, d)
		}
	}
	if n := tiny.props.size(); n != 0 {
		t.Fatalf("tiny-1 Gaussians left %d propagators in the cache, want none", n)
	}
}

// TestFastIntegratorRabiAnalytic checks the fast path against the closed
// form: a resonant constant drive of amplitude a for T seconds gives
// P(1) = sin²(π·Rabi·a·T).
func TestFastIntegratorRabiAnalytic(t *testing.T) {
	rabi := 10e6
	for _, ticks := range []int{10, 25, 50, 75, 100, 137} {
		for _, amp := range []float64{0.25, 0.5, 1.0} {
			s, ex := oneQubitRig(t, rabi, nil)
			playConst(t, s, "q0-drive-port", "q0-drive-frame", amp, ticks)
			res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
			p1 := res.FinalState.PopulationOfLevel(0, 1)
			want := math.Pow(math.Sin(math.Pi*rabi*amp*float64(ticks)*1e-9), 2)
			if !(math.Abs(p1-want) <= 1e-9) {
				t.Fatalf("ticks=%d amp=%g: P(1)=%.12g want %.12g", ticks, amp, p1, want)
			}
		}
	}
}

// TestStretchCacheHitsConstantEnvelope verifies that repeated identical
// square pulses share one cached propagator: execution stays correct and
// the cache holds a single stretch entry.
func TestStretchCacheHitsConstantEnvelope(t *testing.T) {
	s, ex := oneQubitRig(t, 10e6, nil)
	// Four identical π/4 square pulses = one π pulse total.
	for i := 0; i < 4; i++ {
		playConst(t, s, "q0-drive-port", "q0-drive-frame", 0.5, 25)
	}
	res := runSchedule(t, s, ex, ExecOptions{Shots: 1})
	p1 := res.FinalState.PopulationOfLevel(0, 1)
	if !(math.Abs(p1-1) <= 1e-9) {
		t.Fatalf("P(1) after 4×π/4 = %.12g, want 1", p1)
	}
}

// TestFastPathSteadyStateAllocations pins the zero-allocation steady
// state of the state-vector fast path: total allocations per Run must not
// grow with the sample count (the 8× longer pulse may allocate at most a
// few stragglers more than the short one; the exact path allocated ~18
// per sample).
func TestFastPathSteadyStateAllocations(t *testing.T) {
	mkRun := func(samples int) func() {
		s, ex := oneQubitRig(t, 10e6, nil)
		w, err := waveform.Gaussian{Amplitude: 0.9, SigmaFrac: 0.2}.Materialize("w", samples)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(&pulse.Play{Port: "q0-drive-port", Frame: "q0-drive-frame", Waveform: w}); err != nil {
			t.Fatal(err)
		}
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := ex.Run(sp, ExecOptions{Shots: 1}); err != nil {
				panic(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, mkRun(512))
	long := testing.AllocsPerRun(5, mkRun(4096))
	if long-short > 16 {
		t.Fatalf("allocations grow with sample count: %v at 512 samples, %v at 4096", short, long)
	}
}

// TestFastIntegratorDetunedDrive covers the time-dependent modulation path
// (detuned frame ⇒ no constant stretches) against the exact integrator.
func TestFastIntegratorDetunedDrive(t *testing.T) {
	s, ex := oneQubitRig(t, 10e6, nil)
	f := frameByID(s, "q0-drive-frame")
	f.Apply(pulse.SetFrequency, 5.0e9+15e6, 0)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 80)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := execExact(ex, sp)
	if err != nil {
		t.Fatal(err)
	}
	if fid := Fidelity(fast.FinalState.State, exact.FinalState.State); !(fid >= 1-1e-9) {
		t.Fatalf("detuned fast vs exact fidelity %.15g", fid)
	}
}

// TestLongStretchesMatchExact pins the stretch build where it is weakest: a
// stretch halves its duration until ‖H‖·t ≤ 1 and squares the series back
// up, which can grow the Taylor residual by up to 2^s. A 100,000-tick idle
// segment and a 4,096-tick constant drive, each between two Gaussians so
// the state carries coherences through it, stay within the property tests'
// tolerances of the exact reference on both engines.
func TestLongStretchesMatchExact(t *testing.T) {
	gaussian := func(s *pulse.Schedule, amp float64) {
		w, err := waveform.Gaussian{Amplitude: amp, SigmaFrac: 0.2}.Materialize("g", 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: w}); err != nil {
			t.Fatal(err)
		}
	}
	stretches := map[string]func(s *pulse.Schedule){
		"idle 100000": func(s *pulse.Schedule) {
			if err := s.Append(&pulse.Delay{Port: "d0", Samples: 100_000}); err != nil {
				t.Fatal(err)
			}
		},
		"drive 4096": func(s *pulse.Schedule) { playConst(t, s, "d0", "f0", 0.6, 4096) },
	}
	for name, stretch := range stretches {
		for _, dims := range [][]int{{3}, {2, 2}} {
			for _, open := range []bool{false, true} {
				var cs []Collapse
				if open {
					cs = RelaxationCollapses(dims, 0, 300e-6, 200e-6)
				}
				s, ex := randomDriveRig(t, rand.New(rand.NewSource(43)), dims, cs)
				gaussian(s, 0.5)
				stretch(s)
				gaussian(s, 0.8)
				sp, err := s.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				fast, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
				if err != nil {
					t.Fatal(err)
				}
				exact, err := execExact(ex, sp)
				if err != nil {
					t.Fatal(err)
				}
				if fast.PropCacheMisses == 0 {
					t.Fatalf("%s, dims %v: no stretch was built", name, dims)
				}
				if open && !fast.FinalDensity.Rho.IsFinite() ||
					!open && !(&linalg.Matrix{Rows: 1, Cols: len(fast.FinalState.Amp), Data: fast.FinalState.Amp}).IsFinite() {
					t.Fatalf("%s, dims %v: the final state has a non-finite entry", name, dims)
				}
				if open {
					if diff := fast.FinalDensity.Rho.Sub(exact.FinalDensity.Rho).MaxAbs(); !(diff <= 1e-9) {
						t.Errorf("%s, dims %v: fast vs exact density off by %g", name, dims, diff)
					}
					continue
				}
				if fid := Fidelity(fast.FinalState.State, exact.FinalState.State); !(fid >= 1-1e-9) {
					t.Errorf("%s, dims %v: fast vs exact fidelity %.15g", name, dims, fid)
				}
			}
		}
	}
}

// TestExactRunBypassesPropagatorCache: the exact reference computes every
// propagator itself. A runExact walk after a fast run has filled the
// executor's cache looks nothing up in it and adds nothing to it, on both
// engines, so the fast path is never checked against its own output.
func TestExactRunBypassesPropagatorCache(t *testing.T) {
	for _, open := range []bool{false, true} {
		var cs []Collapse
		if open {
			cs = RelaxationCollapses([]int{3}, 0, 30e-6, 20e-6)
		}
		s, ex := randomDriveRig(t, rand.New(rand.NewSource(5)), []int{3}, cs)
		playConst(t, s, "d0", "f0", 0.4, 40)
		if err := s.Append(&pulse.Delay{Port: "d0", Samples: 100}); err != nil {
			t.Fatal(err)
		}
		playConst(t, s, "d0", "f0", 0.7, 24)
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := ex.Run(sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		cached := ex.props.size()
		if fast.PropCacheMisses == 0 || cached == 0 {
			t.Fatalf("open=%v: the fast run cached nothing (%+v)", open, fast.EngineStats)
		}
		exact, err := execExact(ex, sp)
		if err != nil {
			t.Fatal(err)
		}
		if exact.PropCacheHits != 0 || exact.PropCacheMisses != 0 || ex.props.size() != cached {
			t.Fatalf("open=%v: exact run made %d hits and %d misses, cache %d → %d entries",
				open, exact.PropCacheHits, exact.PropCacheMisses, cached, ex.props.size())
		}
	}
}

// TestStretchBuildMatchesExpI compares a propagator-cache miss with the
// reference matrix itself, not a state it produced: the Taylor build
// carries the spectral shift's phase e^{−iλt}, so the cached propagator is
// exp(−iH·t) entry by entry, for one tick and for long stretches, driven and
// idle, built in either engine's scratch.
func TestStretchBuildMatchesExpI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][]int{{2}, {3}, {2, 2}} {
		for _, open := range []bool{false, true} {
			var cs []Collapse
			if open {
				cs = RelaxationCollapses(dims, 0, 30e-6, 20e-6)
			}
			_, ex := randomDriveRig(t, rng, dims, cs)
			eng := ex.newFastEngine(open, 1e-9)
			drive := []playEvent{{ch: ex.Model.Channels["d0"]}}
			for _, c := range []struct {
				active []playEvent
				chis   []complex128
				ticks  int64
			}{
				{drive, []complex128{complex(0.3, -0.4)}, 1},
				{drive, []complex128{complex(-0.7, 0.2)}, 4096},
				{nil, nil, 1},
				{nil, nil, 100_000},
			} {
				got := ex.propagator(eng, c.active, c.chis, c.ticks)
				if !got.IsFinite() {
					t.Fatalf("dims %v, %d ticks: built propagator has a non-finite entry", dims, c.ticks)
				}
				want, err := exactPropagator(ex, c.active, c.chis, float64(c.ticks)*eng.dt)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.Sub(want).MaxAbs(); !(d <= 1e-9) {
					t.Errorf("dims %v, open %v, %d ticks, %d plays: built propagator off by %g",
						dims, open, c.ticks, len(c.active), d)
				}
			}
		}
	}
}

// TestTaylorPropagatorMatchesExpI pins a tick's propagator build entry by
// entry: the Hermitian-power series, with its sub-steps and dense
// powering, equals exp(−i·H·dt) of the spectrally shifted tick Hamiltonian
// within 1e-12 and is unitary within 1e-12. The models are one d = 2
// site (whose tick is the closed form, twoLevel, without its phase
// e^{−iμ·dt}, μ the mean of H's diagonal: held to the same bounds once
// that phase is put back), two qubits with a static exchange term in the drift (so the
// drift has entries off its diagonal) and an exchange coupler, and two
// d = 3 transmons with a ZZ coupler; a random χ drives one to three of
// their channels, and ‖H‖·dt runs from 0.1 to 4 (one to four sub-steps).
func TestTaylorPropagatorMatchesExpI(t *testing.T) {
	model := func(dims []int, drift *linalg.Matrix, channels ...*ControlChannel) *Executor {
		m, err := NewSystemModel(dims, drift, channels, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewExecutor(m)
	}
	q1, q2, tr := []int{2}, []int{2, 2}, []int{3, 3}
	exchange := linalg.EmbedTwo(linalg.Annihilation(2).Dagger().Kron(linalg.Annihilation(2)), q2, 0)
	rigs := []*Executor{
		model(q1, TransmonDrift(q1, 0, 30e6, 0), TransmonDriveChannel("d0", q1, 0, 250e6, 5e9)),
		model(q2, TransmonDrift(q2, 0, 20e6, 0).Add(TransmonDrift(q2, 1, -15e6, 0)).
			Add(exchange.Add(exchange.Dagger()).Scale(complex(2*math.Pi*5e6, 0))),
			TransmonDriveChannel("d0", q2, 0, 40e6, 5e9), TransmonDriveChannel("d1", q2, 1, 45e6, 5.1e9),
			ExchangeCouplerChannel("c01", q2, 0, 20e6)),
		model(tr, TransmonDrift(tr, 0, 0, -220e6).Add(TransmonDrift(tr, 1, 0, -210e6)),
			TransmonDriveChannel("d0", tr, 0, 40e6, 5e9), TransmonDriveChannel("d1", tr, 1, 40e6, 5.1e9),
			ZZCouplerChannel("c01", tr, 0, 25e6)),
	}
	rng := rand.New(rand.NewSource(51))
	for _, ex := range rigs {
		n := ex.Model.HilbertDim()
		ports := slices.Sorted(maps.Keys(ex.Model.Channels))
		eng := ex.newFastEngine(true, 1e-9)
		for trial := 0; trial < 40; trial++ {
			var active []playEvent
			var chis []complex128
			for _, i := range rng.Perm(len(ports))[:1+rng.Intn(len(ports))] {
				active = append(active, playEvent{ch: ex.Model.Channels[ports[i]]})
				chis = append(chis, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
			}
			eng.loadHam(active, chis)
			theta := 0.1 + 3.9*rng.Float64()
			dt := theta / eng.ham.normBound()
			eng.mat.propagator(eng.ham, dt)
			got := eng.mat.u
			if !got.IsFinite() {
				t.Fatalf("n=%d, θ=%.2f: U has a non-finite entry", n, theta)
			}

			h := ex.Model.Drift.Clone()
			for i := 0; i < n; i++ {
				h.Set(i, i, h.At(i, i)-complex(ex.lam, 0))
			}
			for i := range active {
				active[i].ch.driveTerm(h, chis[i])
			}
			want, err := linalg.ExpI(h, dt)
			if err != nil {
				t.Fatal(err)
			}
			if n == 2 {
				got = got.Scale(cmplx.Exp(complex(0, -real(h.Data[0]+h.Data[3])/2*dt)))
			}
			if d := got.Sub(want).MaxAbs(); !(d <= 1e-12) {
				t.Fatalf("n=%d, θ=%.2f, %d channels: U off exp(−iH·dt) by %g", n, theta, len(active), d)
			}
			if d := got.Dagger().Mul(got).Sub(linalg.Identity(n)).MaxAbs(); !(d <= 1e-12) {
				t.Fatalf("n=%d, θ=%.2f, %d channels: U†U off I by %g", n, theta, len(active), d)
			}
		}
	}
}

// TestTwoLevelPropagatorMatchesExpI pins the n = 2 closed form entry by
// entry against the eigendecomposition: random Hermitian H with ‖H‖·t from
// about 0.01 to 10, and the edges H = 0 and H ∝ I (r = 0, where sin(rt)/r
// is its limit t), a diagonal H (c = 0) and |c| ≫ |δ|. twoLevel returns
// μ, the mean of H's diagonal, and e^{−iμt} times the U it writes is
// within 1e-13 of ExpI; U is unitary within 1e-15.
func TestTwoLevelPropagatorMatchesExpI(t *testing.T) {
	hs := []*linalg.Matrix{
		linalg.NewMatrix(2, 2),
		linalg.Identity(2).Scale(3e8),
		linalg.FromRows([][]complex128{{2e8, 0}, {0, -5e7}}),
		linalg.FromRows([][]complex128{{1e8 + 10, complex(3e8, -4e8)}, {complex(3e8, 4e8), 1e8 - 10}}),
	}
	rng := rand.New(rand.NewSource(54))
	for range 200 {
		hs = append(hs, randHermitianM(rng, 2, 1e8))
	}
	s := newMatStepper(2)
	for i, h := range hs {
		got := linalg.NewMatrix(2, 2)
		ham := &tickHam{}
		if h.MaxAbs() != 0 {
			ham.drift = linalg.NewSparse(h)
		}
		dt := 1e-10 * math.Pow(10, 2*rng.Float64())
		mu := s.twoLevel(ham, dt, got)
		if want := real(h.Data[0]+h.Data[3]) / 2; mu != want {
			t.Fatalf("case %d, H = %v: μ = %g, want %g", i, h.Data, mu, want)
		}
		if d := got.Dagger().Mul(got).Sub(linalg.Identity(2)).MaxAbs(); !(d <= 1e-15) {
			t.Fatalf("case %d, H = %v, t = %g: U†U off I by %g", i, h.Data, dt, d)
		}
		got = got.Scale(cmplx.Exp(complex(0, -mu*dt)))
		if !got.IsFinite() {
			t.Fatalf("case %d, H = %v, t = %g: U = %v", i, h.Data, dt, got.Data)
		}
		want, err := linalg.ExpI(h, dt)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.Sub(want).MaxAbs(); !(d <= 1e-13) {
			t.Fatalf("case %d, H = %v, t = %g: e^{−iμt}·U off exp(−iH·t) by %g", i, h.Data, dt, d)
		}
	}
}

// TestTwoLevelStretchIsExact: at n = 2 a propagator-cache miss is the
// closed form times the shift's phase, with no halvings or squarings, so a
// detuned drive held for 4,096,000 ticks (4 ms, r·t ≈ 10⁶) is unitary
// within 1e-13 and within 1e-9 of the exact reference (it reads 1e-16 and
// 3e-10). Halving, the series and squaring back read 3.2e-9 and 3.5e-9.
func TestTwoLevelStretchIsExact(t *testing.T) {
	q1 := []int{2}
	m, err := NewSystemModel(q1, TransmonDrift(q1, 0, 30e6, 0), []*ControlChannel{TransmonDriveChannel("d0", q1, 0, 250e6, 5e9)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(m)
	eng := ex.newFastEngine(false, 1e-9)
	active, chis := []playEvent{{ch: m.Channels["d0"]}}, []complex128{complex(0.3, -0.4)}
	const ticks = 4_096_000
	u := ex.propagator(eng, active, chis, ticks)
	if !u.IsFinite() {
		t.Fatal("stretch propagator has a non-finite entry")
	}
	if d := u.Dagger().Mul(u).Sub(linalg.Identity(2)).MaxAbs(); !(d <= 1e-13) {
		t.Fatalf("U†U off I by %g", d)
	}
	want, err := exactPropagator(ex, active, chis, ticks*eng.dt)
	if err != nil {
		t.Fatal(err)
	}
	if d := u.Sub(want).MaxAbs(); !(d <= 1e-9) {
		t.Fatalf("stretch propagator off exp(−iH·t) by %g", d)
	}
}

// TestStretchMapMatchesExact pins the density engine's stretch map — a
// long constant stretch applied as one memoized S^run — on the sc-2 shape
// (n = 9, where 183 ticks is the shortest stretch it takes). Square pulses
// of 81 ticks (stepped per tick), 183, 256 and 4,096 ticks on both drives,
// between Gaussians so ρ carries coherences into and out of the stretch,
// end within 1e-11 of the same stretch played as pieces of at most 64
// ticks, which step tick by tick with the same propagator and dissipator
// step, and within the property tests' 1e-9 of the exact reference (at
// 4,096 ticks the per-tick integrator is itself 1.7e-11 from it); all three
// count every tick's dissipator step. A zero drive over tiny-1's zero drift
// takes the map too.
func TestStretchMapMatchesExact(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	program := func(ticks, piece int) *pulse.ScheduledProgram {
		return resonantProgram(t, func(s *pulse.Schedule) {
			playGaussian(t, s, "d0", "f0", 0.5, 32)
			if err := s.Append(&pulse.Barrier{}); err != nil {
				t.Fatal(err)
			}
			for left := ticks; left > 0; left -= piece {
				playConst(t, s, "d0", "f0", 0.3, min(left, piece))
				playConst(t, s, "d1", "f1", 0.4, min(left, piece))
			}
			playGaussian(t, s, "d1", "f1", 0.8, 32)
		})
	}
	for _, c := range []struct {
		ticks int
		maps  int // stretch maps built so far
	}{{81, 0}, {183, 1}, {256, 2}, {4096, 3}} {
		ticks := c.ticks
		sp := program(ticks, ticks)
		whole, err := execEvolved(ex, sp, ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n := ex.maps.size(); n != c.maps {
			t.Fatalf("%d ticks: %d stretch maps built, want %d", ticks, n, c.maps)
		}
		pieces, err := execEvolved(ex, program(ticks, 64), ExecOptions{Shots: 1})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := execExact(ex, sp)
		if err != nil {
			t.Fatal(err)
		}
		if whole.DissipatorSteps != pieces.DissipatorSteps || whole.DissipatorSteps != exact.DissipatorSteps {
			t.Fatalf("%d ticks: %d dissipator steps, %d in pieces, %d exact",
				ticks, whole.DissipatorSteps, pieces.DissipatorSteps, exact.DissipatorSteps)
		}
		rho := whole.FinalDensity.Rho
		if !rho.IsFinite() || !pieces.FinalDensity.Rho.IsFinite() {
			t.Fatalf("%d ticks: ρ has a non-finite entry", ticks)
		}
		if d := rho.Sub(pieces.FinalDensity.Rho).MaxAbs(); !(d <= 1e-11) {
			t.Errorf("%d ticks: stretch map vs per-tick stepping off by %g", ticks, d)
		}
		if d := rho.Sub(exact.FinalDensity.Rho).MaxAbs(); !(d <= 1e-9) {
			t.Errorf("%d ticks: stretch map vs exact density off by %g", ticks, d)
		}
		if err := whole.FinalDensity.CheckPhysical(1e-9); err != nil {
			t.Errorf("%d ticks: %v", ticks, err)
		}
	}

	// A zero drive over a zero drift (the tiny-1 shape, n² = 4) is a
	// constant stretch too: its map is the dissipator step's power.
	tiny := oneQubitOpenRig(t)
	sp := resonantProgram(t, func(s *pulse.Schedule) {
		playGaussian(t, s, "d0", "f0", 0.5, 16)
		playConst(t, s, "d0", "f0", 0, 64)
		playGaussian(t, s, "d0", "f0", 0.3, 16)
	})
	fast, err := execEvolved(tiny, sp, ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := execExact(tiny, sp)
	if err != nil {
		t.Fatal(err)
	}
	if n := tiny.maps.size(); n != 1 {
		t.Fatalf("zero drive: %d stretch maps built, want 1", n)
	}
	if !fast.FinalDensity.Rho.IsFinite() {
		t.Fatal("zero drive: ρ has a non-finite entry")
	}
	if d := fast.FinalDensity.Rho.Sub(exact.FinalDensity.Rho).MaxAbs(); !(d <= 1e-9) || fast.DissipatorSteps != exact.DissipatorSteps {
		t.Errorf("zero drive: off the exact density by %g, %d dissipator steps against %d",
			d, fast.DissipatorSteps, exact.DissipatorSteps)
	}
}

// TestUseStretchMap pins which constant open stretches become stretch
// maps: at sc-2 (n = 9) from 183 ticks; at three d = 2 sites (n = 8) from
// 112, so a three-atom CZ's 629-tick flat top; tiny-1 (n = 2) from its
// n² = 4; and never above mapMaxDim — a four-ion CZ's 3,139-tick flat top
// at n = 16, any square at three d = 3 sites (n = 27).
func TestUseStretchMap(t *testing.T) {
	for _, c := range []struct {
		n    int
		run  int64
		want bool
	}{
		{9, 182, false}, {9, 183, true}, {9, 256, true}, {9, 100_000, true},
		{8, 111, false}, {8, 112, true}, {8, 629, true}, {4, 15, false}, {4, 16, true},
		{2, 3, false}, {2, 4, true},
		{16, 3139, false}, {27, 1 << 20, false},
	} {
		if got := useStretchMap(c.n, c.run); got != c.want {
			t.Errorf("useStretchMap(%d, %d) = %v, want %v", c.n, c.run, got, c.want)
		}
	}
}

// TestIdlePropagatorIsUnitary: on the sc-2 shape the drift is diagonal, so
// an idle stretch's propagator is diag(e^{−i·d_j·t})·e^{−iλt}, built with
// no series and no squaring. At 4,096,000 ticks (4 ms) it is unitary within
// 1e-13 — a halve-and-square build drifts by 1.6e-8 there — and equals the
// exact reference within its phases' rounding.
func TestIdlePropagatorIsUnitary(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	eng := ex.newFastEngine(true, 1e-9)
	const ticks = 4_096_000
	u := ex.propagator(eng, nil, nil, ticks)
	n := ex.Model.HilbertDim()
	if d := u.Dagger().Mul(u).Sub(linalg.Identity(n)).MaxAbs(); !(d <= 1e-13) {
		t.Fatalf("U†U off I by %g", d)
	}
	want, err := exactPropagator(ex, nil, nil, ticks*eng.dt)
	if err != nil {
		t.Fatal(err)
	}
	if d := u.Sub(want).MaxAbs(); !(d <= 1e-9) {
		t.Fatalf("idle propagator off exp(−iH·t) by %g", d)
	}
}

// size reports the memo's current entry count.
func (c *memo[V]) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
