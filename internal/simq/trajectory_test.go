package simq

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/waveform"
)

// Statistical acceptance harness for the Monte-Carlo trajectory engine.
// The density engine is the pinned reference: every tolerance below is
// DERIVED from the shot count and a chosen significance level, never
// hand-tuned. Seeds are fixed, so each test is deterministic — the bounds
// guard against implementation error (a wrong unraveling shifts the mean
// far outside any confidence radius), not against flaky reruns.

// zQuantile returns the upper-tail standard-normal quantile: the z with
// P(Z > z) = alpha.
func zQuantile(alpha float64) float64 {
	return math.Sqrt2 * math.Erfinv(1-2*alpha)
}

// binomialRadius is the confidence radius of an observed frequency of a
// Bernoulli(p) sample of size n at significance alpha: the normal
// approximation radius z·√(p(1−p)/n) plus the 1/n continuity correction.
func binomialRadius(p float64, n int, alpha float64) float64 {
	return zQuantile(alpha)*math.Sqrt(p*(1-p)/float64(n)) + 1/float64(n)
}

// chiSquareCritical returns the upper-tail critical value of the χ²
// distribution with df degrees of freedom at significance alpha, via the
// Wilson–Hilferty cube-root normal approximation (accurate to ~1% for
// df ≥ 3, far tighter than the margins the tests leave).
func chiSquareCritical(df int, alpha float64) float64 {
	k := float64(df)
	z := zQuantile(alpha)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// t1DecayRig schedules π-pulse → idle τ → capture on a qubit with pure
// amplitude damping.
func t1DecayRig(t *testing.T, t1 float64, idleTicks int64) (*pulse.Schedule, *Executor) {
	t.Helper()
	cs := RelaxationCollapses([]int{2}, 0, t1, 0)
	s, ex := oneQubitRig(t, 10e6, cs)
	playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, 50) // π pulse
	if idleTicks > 0 {
		if err := s.Append(&pulse.Delay{Port: "q0-drive-port", Samples: idleTicks}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 100}); err != nil {
		t.Fatal(err)
	}
	return s, ex
}

func TestTrajectoryT1DecayMatchesDensityAndAnalytic(t *testing.T) {
	// π pulse, idle τ, measure. Under pure amplitude damping the excited
	// population decays exactly exponentially after the (fixed) pulse, so
	// p(τ)/p(0) = e^{−Δτ/T1} — an analytic pin with no fit parameters.
	// The trajectory estimate at each τ must sit inside the derived
	// binomial confidence radius around the density engine's exact
	// population.
	const (
		t1    = 2e-6 // seconds
		dt    = 1e-9
		shots = 20000
		alpha = 1e-3 // per-assertion significance
	)
	delays := []int64{0, 500, 1000, 2000}
	refs := make([]float64, len(delays))
	for i, idle := range delays {
		s, ex := t1DecayRig(t, t1, idle)
		den := runSchedule(t, s, ex, ExecOptions{Shots: 1, ForceDensity: true})
		if den.FinalDensity == nil {
			t.Fatal("reference run did not use the density engine")
		}
		refs[i] = den.FinalDensity.PopulationOfLevel(0, 1)

		s2, ex2 := t1DecayRig(t, t1, idle)
		res := runSchedule(t, s2, ex2, ExecOptions{
			Shots: shots, Seed: 40 + int64(i),
			Integrator: IntegratorTrajectory, ShotWorkers: 4,
		})
		if res.FinalState != nil || res.FinalDensity != nil {
			t.Fatal("trajectory run should expose no single final state")
		}
		freq := float64(res.Counts[1]) / shots
		if r := binomialRadius(refs[i], shots, alpha); math.Abs(freq-refs[i]) > r {
			t.Fatalf("idle %d: trajectory P(1) = %g, density reference %g, radius %g",
				idle, freq, refs[i], r)
		}
	}
	// Analytic exponential-decay pin on the density reference itself. The
	// idle dissipator integrates with RK4 at MaxIdleStep = 500 ns: the
	// local relative error of RK4 on e^{−λ} is λ⁵/5! ≈ 8e−6 at
	// λ = step/T1 = 0.25, so a 1e−4 relative tolerance has a 3× margin
	// over the worst whole-test accumulation.
	for i, idle := range delays[1:] {
		want := math.Exp(-float64(idle) * dt / t1)
		got := refs[i+1] / refs[0]
		if math.Abs(got-want) > 1e-4 {
			t.Fatalf("density decay ratio at τ=%dns: %g, analytic %g", idle, got, want)
		}
	}
}

func TestTrajectoryRabiWithDephasingMatchesDensity(t *testing.T) {
	// Rabi oscillation under pure dephasing, sampled at several pulse
	// lengths: jumps fire during driven evolution, and the damped curve
	// must track the density reference inside the derived radius at every
	// point.
	const (
		shots = 20000
		alpha = 1e-3
	)
	cs := func() []Collapse { return RelaxationCollapses([]int{2}, 0, 0, 0.4e-6) }
	for i, ticks := range []int{25, 50, 75, 100} {
		build := func() (*pulse.Schedule, *Executor) {
			s, ex := oneQubitRig(t, 10e6, cs())
			playConst(t, s, "q0-drive-port", "q0-drive-frame", 1.0, ticks)
			if err := s.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 50}); err != nil {
				t.Fatal(err)
			}
			return s, ex
		}
		s, ex := build()
		den := runSchedule(t, s, ex, ExecOptions{Shots: 1, ForceDensity: true})
		ref := den.FinalDensity.PopulationOfLevel(0, 1)

		s2, ex2 := build()
		res := runSchedule(t, s2, ex2, ExecOptions{
			Shots: shots, Seed: 70 + int64(i),
			Integrator: IntegratorTrajectory, ShotWorkers: 4,
		})
		freq := float64(res.Counts[1]) / shots
		if r := binomialRadius(ref, shots, alpha); math.Abs(freq-ref) > r {
			t.Fatalf("ticks %d: trajectory P(1) = %g, density reference %g, radius %g",
				ticks, freq, ref, r)
		}
	}
}

// twoTransmonRig builds a two-qubit open system driven by a Gaussian pulse
// on site 0 (exercising the matrix-free varying-envelope trajectory path)
// and a square pulse on site 1 (exercising the cached constant-stretch
// path), with captures on both sites.
func twoTransmonRig(t *testing.T, t1, t2 float64) (*pulse.Schedule, *Executor) {
	t.Helper()
	dims := []int{2, 2}
	s := pulse.NewSchedule()
	for _, p := range []*pulse.Port{
		{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1},
		{ID: "d1", Kind: pulse.PortDrive, Sites: []int{1}, SampleRateHz: 1e9, MaxAmplitude: 1},
	} {
		if err := s.AddPort(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"f0", "f1"} {
		if err := s.AddFrame(pulse.NewFrame(f, 5.0e9)); err != nil {
			t.Fatal(err)
		}
	}
	collapses := append(RelaxationCollapses(dims, 0, t1, t2), RelaxationCollapses(dims, 1, t1, t2)...)
	model, err := NewSystemModel(dims, nil, []*ControlChannel{
		QubitDriveChannel("d0", dims, 0, 10e6, 5.0e9),
		QubitDriveChannel("d1", dims, 1, 10e6, 5.0e9),
	}, collapses)
	if err != nil {
		t.Fatal(err)
	}
	g, err := waveform.Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&pulse.Play{Port: "d0", Frame: "f0", Waveform: g}); err != nil {
		t.Fatal(err)
	}
	playConst(t, s, "d1", "f1", 1.0, 25) // π/2 pulse
	if err := s.Append(&pulse.Barrier{}); err != nil {
		t.Fatal(err)
	}
	for bit, port := range []string{"d0", "d1"} {
		frame := []string{"f0", "f1"}[bit]
		if err := s.Append(&pulse.Capture{Port: port, Frame: frame, Bit: bit, DurationSamples: 40}); err != nil {
			t.Fatal(err)
		}
	}
	return s, NewExecutor(model)
}

func TestTrajectoryChiSquareTwoTransmonCounts(t *testing.T) {
	// χ² goodness of fit of trajectory counts (with asymmetric readout
	// error) against the exact observed-mask distribution implied by the
	// density reference: joint populations → site masks → per-bit flip
	// matrix. Critical value derived by Wilson–Hilferty, never hand-tuned.
	const (
		shots = 30000
		p01   = 0.02
		p10   = 0.05
		alpha = 1e-3
	)
	dims := []int{2, 2}
	sites := []int{0, 1}

	s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	den := runSchedule(t, s, exd, ExecOptions{Shots: 1, ForceDensity: true})
	probs := den.FinalDensity.Populations()

	expected := make([]float64, 4)
	for idx, p := range probs {
		if p <= 0 {
			continue
		}
		mask := siteMask(dims, sites, idx)
		for obs := uint64(0); obs < 4; obs++ {
			w := p
			for b := uint(0); b < 2; b++ {
				trueBit := (mask >> b) & 1
				obsBit := (obs >> b) & 1
				switch {
				case trueBit == 0 && obsBit == 1:
					w *= p01
				case trueBit == 0:
					w *= 1 - p01
				case obsBit == 0:
					w *= p10
				default:
					w *= 1 - p10
				}
			}
			expected[obs] += w
		}
	}

	s2, ext := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	res := runSchedule(t, s2, ext, ExecOptions{
		Shots: shots, Seed: 90, ReadoutP01: p01, ReadoutP10: p10,
		Integrator: IntegratorTrajectory, ShotWorkers: 4,
	})

	chi2 := 0.0
	for obs := uint64(0); obs < 4; obs++ {
		e := expected[obs] * shots
		if e < 5 {
			t.Fatalf("expected count for mask %b too small (%g) for a χ² test", obs, e)
		}
		o := float64(res.Counts[obs])
		chi2 += (o - e) * (o - e) / e
	}
	if crit := chiSquareCritical(3, alpha); chi2 > crit {
		t.Fatalf("χ² = %g exceeds critical %g (counts %v, expected %v)",
			chi2, crit, res.Counts, expected)
	}
}

func TestShotDeterminismAcrossWorkerCounts(t *testing.T) {
	// Byte-identical results whatever the worker count and whatever order
	// shots complete in: every shot is a pure function of (seed, index)
	// and aggregation runs in shot order. Parallel runs repeat to also
	// catch order-dependent accumulation.
	workerCounts := []int{1, 4, runtime.NumCPU(), 4}
	run := func(workers int, integrator Integrator, force bool) map[uint64]int {
		s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
		res := runSchedule(t, s, exd, ExecOptions{
			Shots: 3000, Seed: 11, ReadoutP01: 0.02, ReadoutP10: 0.05,
			Integrator: integrator, ShotWorkers: workers, ForceDensity: force,
		})
		if res.Workers < 1 || res.Workers > workers && workers > 0 {
			t.Fatalf("Workers = %d with ShotWorkers = %d", res.Workers, workers)
		}
		return res.Counts
	}
	base := run(1, IntegratorTrajectory, false)
	for _, w := range workerCounts[1:] {
		if got := run(w, IntegratorTrajectory, false); !reflect.DeepEqual(got, base) {
			t.Fatalf("trajectory counts differ between 1 and %d workers:\n%v\n%v",
				w, base, got)
		}
	}
	// Auto with parallelism resolves to the same trajectory unraveling, so
	// its results must be bitwise identical to the explicit selection.
	// (NumCPU may be 1, where Auto legitimately keeps the density engine.)
	for _, w := range workerCounts[1:] {
		if w <= 1 {
			continue
		}
		if got := run(w, IntegratorAuto, false); !reflect.DeepEqual(got, base) {
			t.Fatalf("Auto(%d workers) diverged from explicit trajectory counts", w)
		}
	}
	// The density sampling phase must be equally order-independent.
	baseD := run(1, IntegratorAuto, true)
	for _, w := range workerCounts[1:] {
		if got := run(w, IntegratorAuto, true); !reflect.DeepEqual(got, baseD) {
			t.Fatalf("density sampling differs between 1 and %d workers", w)
		}
	}
}

// TestShotDeterminismOnWarmExecutor: the propagator cache outlives a run,
// so the same executor serves trajectory runs at 1 and 4 workers — cold,
// then warm — and every one of them must return what a fresh executor
// returns.
func TestShotDeterminismOnWarmExecutor(t *testing.T) {
	opts := ExecOptions{Shots: 1500, Seed: 11, ReadoutP01: 0.02, ReadoutP10: 0.05, Integrator: IntegratorTrajectory}
	s, fresh := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	opts.ShotWorkers = 4
	want := runSchedule(t, s, fresh, opts)
	if want.PropCacheMisses == 0 {
		t.Fatal("a fresh executor served its first run without a cache miss")
	}
	_, shared := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	for i, workers := range []int{1, 4, 1} {
		opts.ShotWorkers = workers
		got := runSchedule(t, s, shared, opts)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("run %d (%d workers) on the shared executor: %v, fresh executor: %v", i, workers, got.Counts, want.Counts)
		}
		if i > 0 && got.PropCacheMisses != 0 {
			t.Fatalf("run %d on the warm executor missed the cache %d times", i, got.PropCacheMisses)
		}
	}
}

func TestShotDeterminismIQRecords(t *testing.T) {
	// Exact (bitwise) equality of synthesized IQ records across worker
	// counts, for both per-shot and averaged return modes (the averaged
	// path accumulates in fixed shot-order chunks).
	for _, ret := range []readout.MeasReturn{readout.ReturnSingle, readout.ReturnAverage} {
		run := func(workers int) [][]readout.IQ {
			s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
			model := &ReadoutModel{
				Level:  readout.LevelKerneled,
				Return: ret,
				Sites:  map[int]ReadoutSite{0: {Fidelity: 0.97}, 1: {Fidelity: 0.99, T1Seconds: 1e-6}},
			}
			res := runSchedule(t, s, exd, ExecOptions{
				Shots: 600, Seed: 23, Readout: model,
				Integrator: IntegratorTrajectory, ShotWorkers: workers,
			})
			return res.IQ
		}
		base := run(1)
		if len(base) == 0 {
			t.Fatal("no IQ records returned")
		}
		for _, w := range []int{4, runtime.NumCPU()} {
			if got := run(w); !reflect.DeepEqual(got, base) {
				t.Fatalf("return mode %v: IQ records differ between 1 and %d workers", ret, w)
			}
		}
	}
}

func TestAutoIntegratorSelection(t *testing.T) {
	// The Auto rule: trajectories only for open systems with captures when
	// the caller asked for parallelism; ForceDensity always wins; closed
	// systems always keep the state engine.
	open := func() (*pulse.Schedule, *Executor) {
		return t1DecayRig(t, 2e-6, 0)
	}
	s, exd := open()
	if res := runSchedule(t, s, exd, ExecOptions{Shots: 50}); res.FinalDensity == nil {
		t.Fatal("serial Auto open-system run should keep the density engine")
	}
	s, exd = open()
	res := runSchedule(t, s, exd, ExecOptions{Shots: 50, ShotWorkers: 4})
	if res.FinalState != nil || res.FinalDensity != nil {
		t.Fatal("parallel Auto open-system run should unravel as trajectories")
	}
	if res.Workers != 4 || len(res.WorkerBusy) != 4 {
		t.Fatalf("Workers = %d, WorkerBusy = %v, want 4 workers", res.Workers, res.WorkerBusy)
	}
	s, exd = open()
	if res := runSchedule(t, s, exd, ExecOptions{Shots: 50, ShotWorkers: 4, ForceDensity: true}); res.FinalDensity == nil {
		t.Fatal("ForceDensity must override trajectory selection")
	}
	sc, exc := oneQubitRig(t, 10e6, nil)
	playConst(t, sc, "q0-drive-port", "q0-drive-frame", 1.0, 50)
	if err := sc.Append(&pulse.Capture{Port: "q0-drive-port", Frame: "q0-drive-frame", Bit: 0, DurationSamples: 10}); err != nil {
		t.Fatal(err)
	}
	if res := runSchedule(t, sc, exc, ExecOptions{Shots: 50, ShotWorkers: 4}); res.FinalState == nil {
		t.Fatal("closed-system run must keep the state-vector engine")
	}
}

func TestCancelMidShotBatch(t *testing.T) {
	// Cancellation mid-batch: a parallel trajectory job whose Interrupted
	// flag flips after a few shots must return ErrInterrupted with no
	// result, and the pool must stop dispatching promptly (bounded by the
	// in-flight worker count, far below the requested shot total).
	s, exd := t1DecayRig(t, 2e-6, 4000)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	res, err := exd.Run(sp, ExecOptions{
		Shots: 100000, Seed: 5,
		Integrator: IntegratorTrajectory, ShotWorkers: 4,
		Interrupted: func() bool {
			return polls.Add(1) > 8
		},
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("cancelled run leaked a result: %+v", res)
	}
	// Each shot is ≥ 4150 ticks ≥ 4 poll intervals, and workers also poll
	// between shots; 8 trips plus one in-flight shot per worker bounds the
	// work done after the flip. A generous factor still sits orders of
	// magnitude below the 100k requested shots.
	if n := polls.Load(); n > 200 {
		t.Fatalf("%d interrupt polls before the pool drained; cancellation not prompt", n)
	}
}

func TestCancelBeforeFirstShot(t *testing.T) {
	// An already-cancelled job must not emit a single shot result.
	s, exd := t1DecayRig(t, 2e-6, 0)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := exd.Run(sp, ExecOptions{
		Shots: 1000, Integrator: IntegratorTrajectory, ShotWorkers: 4,
		Interrupted: func() bool { return true },
	})
	if err != ErrInterrupted || res != nil {
		t.Fatalf("got (%v, %v), want (nil, ErrInterrupted)", res, err)
	}
}

func TestTrajectoryHotLoopAllocs(t *testing.T) {
	// Steady-state zero allocations per trajectory shot: after the
	// propagator cache warms (replaying the same deterministic shot
	// streams guarantees every cache key is revisited), integrating a
	// shot — spans, jumps, bisection and all — must not allocate.
	cs := RelaxationCollapses([]int{2}, 0, 0.5e-6, 0.4e-6)
	_, exd := oneQubitRig(t, 10e6, cs)
	g, err := waveform.Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 32)
	if err != nil {
		t.Fatal(err)
	}
	ch := exd.Model.Channels["q0-drive-port"]
	plays := []playEvent{
		{start: 0, samples: g.Samples, chi0: 1, ch: ch},
		{start: 40, samples: make([]complex128, 64), chi0: 1, ch: ch},
	}
	for i := range plays[1].samples {
		plays[1].samples[i] = 1 // constant stretch → cached propagator path
	}
	sh := newTrajShared(exd, plays, 2000, 1e-9)
	w := sh.newWorker(nil)
	src := &shotSource{}
	rng := rand.New(src)
	const cycle = 64
	for k := 0; k < cycle; k++ {
		src.state = shotStreamState(1, k)
		if err := w.runShot(rng); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(2*cycle, func() {
		src.state = shotStreamState(1, k%cycle)
		k++
		if err := w.runShot(rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("trajectory hot loop allocates %.1f per shot, want 0", allocs)
	}
}
