package simq

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/waveform"
)

// flips is an ExecOptions.SiteError giving every site the same assignment
// errors.
func flips(p01, p10 float64) func(int) (float64, float64) {
	return func(int) (float64, float64) { return p01, p10 }
}

// Statistical acceptance harness for the shot sampler, and the
// determinism of everything it returns. The density engine's populations
// and analytic decay curves are the pinned references: every tolerance
// below is DERIVED from the shot count and a chosen significance level,
// never hand-tuned. Seeds are fixed, so each test is deterministic — the bounds guard against implementation error
// (a biased draw shifts the mean far outside any confidence radius), not
// against flaky reruns.

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
	// The sampled frequency at each τ must sit inside the derived binomial
	// confidence radius around p(0)·e^{−Δτ/T1}.
	const (
		t1    = 2e-6 // seconds
		dt    = 1e-9
		shots = 20000
		alpha = 1e-3 // per-assertion significance
		// The idle dissipator integrates with RK4 at maxIdleStep = 500 ns:
		// the local relative error of RK4 on e^{−λ} is λ⁵/5! ≈ 8e−6 at
		// λ = step/T1 = 0.25, so a 1e−4 relative tolerance has a 3× margin
		// over the worst whole-test accumulation.
		integTol = 1e-4
	)
	delays := []int64{0, 500, 1000, 2000}
	var p0 float64
	for i, idle := range delays {
		s, ex := t1DecayRig(t, t1, idle)
		res := runSchedule(t, s, ex, ExecOptions{Shots: shots, Seed: 40 + int64(i)})
		if res.FinalDensity == nil {
			t.Fatal("open-system run did not use the density engine")
		}
		pop := res.FinalDensity.PopulationOfLevel(0, 1)
		if i == 0 {
			p0 = pop
		}
		decay := math.Exp(-float64(idle) * dt / t1)
		if math.Abs(pop/p0-decay) > integTol {
			t.Fatalf("density decay ratio at τ=%dns: %g, analytic %g", idle, pop/p0, decay)
		}
		want := p0 * decay
		freq := float64(res.Counts[1]) / shots
		if r := binomialRadius(want, shots, alpha) + integTol; math.Abs(freq-want) > r {
			t.Fatalf("idle %d: sampled P(1) = %g, analytic %g, radius %g", idle, freq, want, r)
		}
	}
}

// twoTransmonRig builds a two-qubit open system driven by a Gaussian pulse
// on site 0 (exercising the matrix-free varying-envelope path) and a
// square pulse on site 1 (exercising the cached constant-stretch path),
// with captures on both sites.
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
	// χ² goodness of fit of sampled counts (asymmetric readout error)
	// against the exact observed-mask distribution implied by the run's own
	// density populations: joint populations → site masks → per-bit flip
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
	res := runSchedule(t, s, exd, ExecOptions{
		Shots: shots, Seed: 90, SiteError: flips(p01, p10),
	})
	probs := res.FinalDensity.Populations()

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

func TestResultsIndependentOfShotWorkers(t *testing.T) {
	// ExecOptions.ShotWorkers is a deprecated field that nothing reads: an
	// open-system job with captures returns the same Counts, IQ and Raw, bit
	// for bit, whatever it asks for, at every measurement level and return
	// mode.
	sites := map[int]ReadoutSite{0: {Fidelity: 0.97}, 1: {Fidelity: 0.99, T1Seconds: 1e-6}}
	for _, level := range []readout.MeasLevel{readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw} {
		for _, ret := range []readout.MeasReturn{readout.ReturnSingle, readout.ReturnAverage} {
			run := func(workers int) *ExecResult {
				s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
				return runSchedule(t, s, exd, ExecOptions{
					Shots: 600, Seed: 23, ShotWorkers: workers,
					Readout: &ReadoutModel{Level: level, Return: ret, Sites: sites},
				})
			}
			base := run(0)
			if len(base.Counts) == 0 || (level != readout.LevelDiscriminated && len(base.IQ) == 0) ||
				(level == readout.LevelRaw && len(base.Raw) == 0) {
				t.Fatalf("level %v return %v: run is missing records", level, ret)
			}
			got := run(4)
			if !reflect.DeepEqual(got.Counts, base.Counts) || !reflect.DeepEqual(got.IQ, base.IQ) ||
				!reflect.DeepEqual(got.Raw, base.Raw) {
				t.Fatalf("level %v return %v: ShotWorkers = 4 changed the result", level, ret)
			}
		}
	}
}

func TestShotDeterminismAcrossWorkerCounts(t *testing.T) {
	// Byte-identical counts on every run, whatever the deprecated
	// ShotWorkers asks for: every shot is a pure function of (seed, index)
	// and the run reports the one worker it had, with one busy entry.
	run := func(workers int) map[uint64]int {
		s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
		res := runSchedule(t, s, exd, ExecOptions{
			Shots: 3000, Seed: 11, SiteError: flips(0.02, 0.05), ShotWorkers: workers,
		})
		if res.Workers != 1 || len(res.WorkerBusy) != 1 {
			t.Fatalf("Workers = %d, WorkerBusy = %v with ShotWorkers = %d", res.Workers, res.WorkerBusy, workers)
		}
		return res.Counts
	}
	base := run(0)
	for _, w := range []int{1, 4, 4} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Fatalf("counts differ with ShotWorkers = %d:\n%v\n%v", w, base, got)
		}
	}
}

// TestShotDeterminismOnWarmExecutor: the propagator cache outlives a run,
// so the same executor serves runs cold, then warm, and every one of them
// must return what a fresh executor returns.
func TestShotDeterminismOnWarmExecutor(t *testing.T) {
	opts := ExecOptions{Shots: 1500, Seed: 11, SiteError: flips(0.02, 0.05)}
	s, fresh := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	want := runSchedule(t, s, fresh, opts)
	if want.PropCacheMisses == 0 {
		t.Fatal("a fresh executor served its first run without a cache miss")
	}
	_, shared := twoTransmonRig(t, 0.5e-6, 0.4e-6)
	for i := 0; i < 3; i++ {
		got := runSchedule(t, s, shared, opts)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("run %d on the shared executor: %v, fresh executor: %v", i, got.Counts, want.Counts)
		}
		if i > 0 && got.PropCacheMisses != 0 {
			t.Fatalf("run %d on the warm executor missed the cache %d times", i, got.PropCacheMisses)
		}
	}
}

func TestShotDeterminismIQRecords(t *testing.T) {
	// Exact (bitwise) equality of synthesized records: a repeated run
	// returns the same per-shot IQ points, and the averaged row is the
	// shot-order mean of exactly those points, at kerneled and raw level.
	for _, level := range []readout.MeasLevel{readout.LevelKerneled, readout.LevelRaw} {
		run := func(ret readout.MeasReturn) *ExecResult {
			s, exd := twoTransmonRig(t, 0.5e-6, 0.4e-6)
			model := &ReadoutModel{
				Level:  level,
				Return: ret,
				Sites:  map[int]ReadoutSite{0: {Fidelity: 0.97}, 1: {Fidelity: 0.99, T1Seconds: 1e-6}},
			}
			return runSchedule(t, s, exd, ExecOptions{Shots: 600, Seed: 23, Readout: model})
		}
		single := run(readout.ReturnSingle)
		if len(single.IQ) != 600 {
			t.Fatalf("%v: %d IQ records, want 600", level, len(single.IQ))
		}
		if again := run(readout.ReturnSingle); !reflect.DeepEqual(again.IQ, single.IQ) || !reflect.DeepEqual(again.Raw, single.Raw) {
			t.Fatalf("%v: a repeated run returned different records", level)
		}
		want := make([]readout.IQ, len(single.IQ[0]))
		for _, row := range single.IQ {
			for i, p := range row {
				want[i].I += p.I
				want[i].Q += p.Q
			}
		}
		for i := range want {
			want[i].I /= 600
			want[i].Q /= 600
		}
		if avg := run(readout.ReturnAverage); !reflect.DeepEqual(avg.IQ, [][]readout.IQ{want}) {
			t.Fatalf("%v: averaged row %v, shot-order mean of the single records %v", level, avg.IQ, want)
		}
	}
}

func TestCancelMidShotBatch(t *testing.T) {
	// Cancellation mid-batch: a job whose Interrupted flag flips a few polls
	// into the sampling phase must return ErrInterrupted with no result, and
	// the poll that sees the flip must be the last: the sampler polls every
	// serialShotPoll shots, so it stops within that many.
	s, exd := t1DecayRig(t, 2e-6, 4000)
	sp, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// A one-shot run polls once per evolution checkpoint and once before its
	// only shot, which places the flip below past the evolution.
	var evolvePolls atomic.Int64
	if _, err := exd.Run(sp, ExecOptions{Shots: 1, Interrupted: func() bool { evolvePolls.Add(1); return false }}); err != nil {
		t.Fatal(err)
	}
	flipAt := evolvePolls.Load() - 1 + 8
	var polls atomic.Int64
	res, err := exd.Run(sp, ExecOptions{
		Shots: 100000, Seed: 5,
		Interrupted: func() bool {
			return polls.Add(1) > flipAt
		},
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("cancelled run leaked a result: %+v", res)
	}
	if n := polls.Load(); n != flipAt+1 {
		t.Fatalf("%d interrupt polls (flip after %d): the run went on polling after it saw the flip", n, flipAt)
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
		Shots:       1000,
		Interrupted: func() bool { return true },
	})
	if err != ErrInterrupted || res != nil {
		t.Fatalf("got (%v, %v), want (nil, ErrInterrupted)", res, err)
	}
}
