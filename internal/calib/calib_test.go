package calib

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/testutil"
)

// clientFor registers the devices with a fresh driver and returns the client
// every routine under test submits through.
func clientFor(t *testing.T, devs ...qdmi.Device) *client.Client {
	t.Helper()
	testutil.AssertNoLeaks(t)
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	cl := client.New(drv.OpenSession())
	t.Cleanup(cl.Close)
	return cl
}

func TestGoldenMin(t *testing.T) {
	min := goldenMin(func(x float64) float64 { return (x - 1.7) * (x - 1.7) }, -5, 5, 80)
	if !(math.Abs(min-1.7) <= 1e-6) {
		t.Fatalf("goldenMin = %g, want 1.7", min)
	}
}

func TestFitOscillationSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f0 := 1.3e6
	var ts, ys []float64
	for i := 0; i < 24; i++ {
		tt := float64(i) * 100e-9
		ts = append(ts, tt)
		ys = append(ys, 0.5+0.45*math.Cos(2*math.Pi*f0*tt+0.4)+0.01*rng.NormFloat64())
	}
	got, err := FitOscillation(ts, ys, 0.2e6, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-f0) > 0.02e6 {
		t.Fatalf("fitted %g, want %g", got, f0)
	}
}

func TestFitOscillationRejectsFlat(t *testing.T) {
	var ts, ys []float64
	for i := 0; i < 20; i++ {
		ts = append(ts, float64(i))
		ys = append(ys, 0.5)
	}
	if _, err := FitOscillation(ts, ys, 0.01, 1); err == nil {
		t.Fatal("flat data fit succeeded")
	}
	if _, err := FitOscillation(ts[:3], ys[:3], 0.01, 1); err == nil {
		t.Fatal("too few points accepted")
	}
	if _, err := FitOscillation(ts, ys, 1, 0.5); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestFitRabiRateSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k0 := 4.2 // rad per unit amplitude
	var amps, p1s []float64
	for i := 0; i < 14; i++ {
		a := 0.08 + 0.92*float64(i)/13
		amps = append(amps, a)
		p1s = append(p1s, math.Pow(math.Sin(k0*a/2), 2)+0.01*rng.NormFloat64())
	}
	k, err := FitRabiRate(amps, p1s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-k0) > 0.05 {
		t.Fatalf("fitted k=%g, want %g", k, k0)
	}
}

func newMiscalibratedSC(t *testing.T, freqErrHz, ampErrRel float64) *devices.SimDevice {
	t.Helper()
	d, err := devices.Superconducting("sc-cal", 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if freqErrHz != 0 {
		d.SetCalibratedFrequency(0, d.TrueFrequency(0)+freqErrHz)
	}
	if ampErrRel != 0 {
		d.SetCalibratedPiAmplitude(0, d.CalibratedPiAmplitude(0)*(1+ampErrRel))
	}
	return d
}

func TestRabiCalibrateRecoversAmplitude(t *testing.T) {
	// Introduce a +12% amplitude miscalibration; Rabi calibration should
	// pull it back to within ~2%.
	d := newMiscalibratedSC(t, 0, 0.12)
	before := d.CalibratedPiAmplitude(0)
	res, err := RabiCalibrate(context.Background(), clientFor(t, d), d, 0, 12, 800)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldAmp != before {
		t.Fatal("report lost the old amplitude")
	}
	// The true π amplitude is what a fresh device computes.
	fresh, _ := devices.Superconducting("fresh", 1, 77)
	truth := fresh.CalibratedPiAmplitude(0)
	if math.Abs(res.NewAmp-truth)/truth > 0.03 {
		t.Fatalf("calibrated amp %g, truth %g", res.NewAmp, truth)
	}
	if d.CalibratedPiAmplitude(0) != res.NewAmp {
		t.Fatal("writeback missing")
	}
}

func TestRamseyCalibrateRecoversFrequency(t *testing.T) {
	// Introduce a +200 kHz frequency error; Ramsey with a 1 MHz probe
	// should recover it within ~30 kHz.
	freqErr := 200e3
	d := newMiscalibratedSC(t, freqErr, 0)
	res, err := RamseyCalibrate(context.Background(), clientFor(t, d), d, 0, 1e6, 16, 800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeasuredOffsetHz-freqErr) > 30e3 {
		t.Fatalf("measured offset %g, want %g", res.MeasuredOffsetHz, freqErr)
	}
	residual := d.CalibratedFrequency(0) - d.TrueFrequency(0)
	if math.Abs(residual) > 30e3 {
		t.Fatalf("residual after calibration: %g Hz", residual)
	}
}

func TestRamseyCalibrateNegativeError(t *testing.T) {
	freqErr := -300e3
	d := newMiscalibratedSC(t, freqErr, 0)
	res, err := RamseyCalibrate(context.Background(), clientFor(t, d), d, 0, 1e6, 16, 800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeasuredOffsetHz-freqErr) > 40e3 {
		t.Fatalf("measured offset %g, want %g", res.MeasuredOffsetHz, freqErr)
	}
}

func TestRamseyCalibrateValidation(t *testing.T) {
	d := newMiscalibratedSC(t, 0, 0)
	if _, err := RamseyCalibrate(context.Background(), clientFor(t, d), d, 0, -5, 8, 100); err == nil {
		t.Fatal("negative probe accepted")
	}
}

func TestRamseyErrorBenchmarkSensitivity(t *testing.T) {
	// The benchmark error should grow with injected detuning.
	good := newMiscalibratedSC(t, 0, 0)
	bad := newMiscalibratedSC(t, 150e3, 0)
	tau := 2e-6
	e0, err := RamseyErrorBenchmark(context.Background(), clientFor(t, good), good, 0, tau, 1500)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := RamseyErrorBenchmark(context.Background(), clientFor(t, bad), bad, 0, tau, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// sin²(π·150e3·2e-6) ≈ 0.66 on top of readout error.
	if e1 < e0+0.3 {
		t.Fatalf("benchmark not drift sensitive: calibrated %g vs drifted %g", e0, e1)
	}
}

func TestPolicyFor(t *testing.T) {
	sc, _ := devices.Superconducting("sc", 1, 1)
	ion, _ := devices.TrappedIon("ion", 1, 1)
	atom, _ := devices.NeutralAtom("atom", 1, 1)
	pSC, err := PolicyFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	pIon, err := PolicyFor(ion)
	if err != nil {
		t.Fatal(err)
	}
	pAtom, err := PolicyFor(atom)
	if err != nil {
		t.Fatal(err)
	}
	// The cadence ordering the paper cites: atoms (minutes) < sc < ions (hours).
	if !(pAtom.RamseyEverySeconds < pSC.RamseyEverySeconds && pSC.RamseyEverySeconds <= pIon.RamseyEverySeconds) {
		t.Fatalf("cadences out of order: atom=%g sc=%g ion=%g",
			pAtom.RamseyEverySeconds, pSC.RamseyEverySeconds, pIon.RamseyEverySeconds)
	}
}

func TestSchedulerDueAndTick(t *testing.T) {
	d := newMiscalibratedSC(t, 100e3, 0)
	pol := Policy{RamseyEverySeconds: 600, RabiEverySeconds: 1e9, ProbeHz: 1e6, Shots: 600}
	s := NewScheduler(clientFor(t, d), d, pol)
	if due := s.Due(); len(due) != 0 {
		t.Fatalf("nothing should be due at t=0, got %v", due)
	}
	d.AdvanceTime(700)
	due := s.Due()
	if len(due) != 1 || due[0].Routine != "ramsey" {
		t.Fatalf("due = %+v, want one ramsey", due)
	}
	n, err := s.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(s.Events) != 1 {
		t.Fatalf("tick ran %d routines", n)
	}
	// After running, nothing due until the next interval.
	if due := s.Due(); len(due) != 0 {
		t.Fatalf("still due after tick: %v", due)
	}
	// The recorded event carries the measured offset.
	if math.Abs(s.Events[0].OffsetHz) < 10e3 {
		t.Fatalf("event offset %g, expected ~100 kHz", s.Events[0].OffsetHz)
	}
}

func TestSchedulerFidelityFloorTrigger(t *testing.T) {
	d := newMiscalibratedSC(t, 0, 0)
	pol := Policy{RamseyEverySeconds: 1e9, RabiEverySeconds: 1e9, ProbeHz: 1e6,
		FidelityFloor: 0.9999, Shots: 600}
	s := NewScheduler(clientFor(t, d), d, pol)
	// Degrade the estimated fidelity by a large frequency miscalibration.
	d.SetCalibratedFrequency(0, d.TrueFrequency(0)+5e6)
	due := s.Due()
	if len(due) != 2 {
		t.Fatalf("fidelity floor should trigger ramsey+rabi, got %v", due)
	}
}

func TestFineAmplitudeCalibrate(t *testing.T) {
	// Inject a +2% amplitude error — below the coarse Rabi fit's noise
	// floor — and verify the error-amplified routine pulls it under 0.5%.
	d := newMiscalibratedSC(t, 0, 0.02)
	fresh, _ := devices.Superconducting("fresh-fine", 1, 77)
	truth := fresh.CalibratedPiAmplitude(0)
	res, err := FineAmplitudeCalibrate(context.Background(), clientFor(t, d), d, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(res.NewAmp-truth) / truth
	if relErr > 0.005 {
		t.Fatalf("fine calibration residual %.4f (amp %g vs truth %g)", relErr, res.NewAmp, truth)
	}
	if d.CalibratedPiAmplitude(0) != res.NewAmp {
		t.Fatal("writeback missing")
	}
}

func TestFineAmplitudeCalibrateNegativeError(t *testing.T) {
	d := newMiscalibratedSC(t, 0, -0.03)
	fresh, _ := devices.Superconducting("fresh-fine2", 1, 77)
	truth := fresh.CalibratedPiAmplitude(0)
	res, err := FineAmplitudeCalibrate(context.Background(), clientFor(t, d), d, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NewAmp-truth)/truth > 0.005 {
		t.Fatalf("fine calibration residual too large: %g vs %g", res.NewAmp, truth)
	}
}

func TestFineAmplitudeBeatsCoarseNoiseFloor(t *testing.T) {
	// With a tiny (0.5%) injected error, the fine routine must not make
	// things worse — the regression EXP-C1 originally exposed.
	d := newMiscalibratedSC(t, 0, 0.005)
	fresh, _ := devices.Superconducting("fresh-fine3", 1, 77)
	truth := fresh.CalibratedPiAmplitude(0)
	res, err := FineAmplitudeCalibrate(context.Background(), clientFor(t, d), d, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	before := math.Abs(d.CalibratedPiAmplitude(0)*0 + res.OldAmp - truth)
	after := math.Abs(res.NewAmp - truth)
	if after > before {
		t.Fatalf("fine calibration worsened the amplitude: |%.5f| -> |%.5f|", before, after)
	}
}

// refRun submits a hand-assembled single-site pulse module (drive port 0,
// readout port 1) straight to a device, below the stack: the reference the
// QPI kernels are held to.
func refRun(t *testing.T, dev *devices.SimDevice, level readout.MeasLevel, shots int,
	waveforms []qir.WaveformConst, body ...qir.Call) *qdmi.Result {
	t.Helper()
	var drive, ro string
	for _, p := range dev.Ports() {
		switch {
		case len(p.Sites) != 1 || p.Sites[0] != 0:
		case p.Kind == pulse.PortDrive:
			drive = p.ID
		case p.Kind == pulse.PortReadout:
			ro = p.ID
		}
	}
	impl, err := dev.DefaultPulse("measure", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	window := impl.Steps[len(impl.Steps)-1].Samples
	mod := &qir.Module{
		ID: "ref", Profile: qir.ProfilePulse, EntryName: "ref",
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{drive, ro},
		Waveforms: waveforms,
		Body: append(body,
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}}),
	}
	job, err := dev.SubmitJobOpts(mod.Emit(), qdmi.FormatQIRPulse, qdmi.JobOptions{Shots: shots, MeasLevel: level})
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Wait(context.Background()); st != qdmi.JobDone {
		_, err := job.Result()
		t.Fatalf("reference job %v: %v", st, err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestKernelsMatchHandAssembledModules: moving calibration onto the stack
// changed how a kernel reaches the device, not what the device runs. One
// hand-assembled module per kernel shape, submitted directly, returns the
// same counts / IQ as the QPI kernel run through client, compiler and QRM on
// an identically seeded device.
func TestKernelsMatchHandAssembledModules(t *testing.T) {
	const shots = 300
	ctx := context.Background()
	play := func(w string) qir.Call {
		return qir.Call{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg(w), qir.F64Arg(1)}}
	}
	delay := func(n int64) qir.Call {
		return qir.Call{Callee: qir.IntrDelay, Args: []qir.Arg{qir.PortArg(0), qir.I64Arg(n)}}
	}
	cases := []struct {
		name  string
		level readout.MeasLevel
		ref   func(*devices.SimDevice, *bench) *qdmi.Result
		got   func(*bench, *devices.SimDevice) (*qpi.Result, error)
	}{
		{"play-measure", readout.LevelDiscriminated,
			func(d *devices.SimDevice, b *bench) *qdmi.Result {
				return refRun(t, d, readout.LevelDiscriminated, shots,
					[]qir.WaveformConst{{Name: "x", Samples: b.env["x"]}}, play("x"))
			},
			func(b *bench, _ *devices.SimDevice) (*qpi.Result, error) { return b.run(ctx, b.kernel("k", "x")) }},
		{"play-delay-play-measure", readout.LevelDiscriminated,
			func(d *devices.SimDevice, b *bench) *qdmi.Result {
				return refRun(t, d, readout.LevelDiscriminated, shots,
					[]qir.WaveformConst{{Name: "sx", Samples: b.env["sx"]}}, play("sx"), delay(700), play("sx"))
			},
			func(b *bench, _ *devices.SimDevice) (*qpi.Result, error) {
				return b.run(ctx, b.play(b.kernel("k", "sx").Delay(b.drive.ID, 700), "sx"))
			}},
		{"detuned-ramsey-point", readout.LevelDiscriminated,
			func(d *devices.SimDevice, b *bench) *qdmi.Result {
				return refRun(t, d, readout.LevelDiscriminated, shots,
					[]qir.WaveformConst{{Name: "sx", Samples: b.env["sx"]}},
					qir.Call{Callee: qir.IntrShiftFrequency, Args: []qir.Arg{qir.PortArg(0), qir.F64Arg(-1e6)}},
					play("sx"), delay(413), play("sx"))
			},
			func(b *bench, d *devices.SimDevice) (*qpi.Result, error) {
				// The Ramsey fringe template at one point, run as a sweep.
				c := b.kernel("k").FrameChange(b.drive.ID, d.CalibratedFrequency(0)-1e6, 0)
				b.play(c, "sx").DelayP(b.drive.ID, qpi.Sym("tau"))
				if err := b.play(c, "sx").Measure(0, 0).End(); err != nil {
					return nil, err
				}
				tpl, err := ptemplate.New(c, ptemplate.Param{Name: "tau", Max: 1000})
				if err != nil {
					return nil, err
				}
				rs, err := b.cl.RunSweep(ctx, tpl, b.device, []ptemplate.Bindings{{"tau": 413}}, b.opts)
				if err != nil {
					return nil, err
				}
				return rs[0].Result, rs[0].Err
			}},
		{"prep-0", readout.LevelKerneled,
			func(d *devices.SimDevice, b *bench) *qdmi.Result {
				return refRun(t, d, readout.LevelKerneled, shots, nil)
			},
			func(b *bench, _ *devices.SimDevice) (*qpi.Result, error) { return b.prep(ctx, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := newMiscalibratedSC(t, 150e3, 0)
			d := newMiscalibratedSC(t, 150e3, 0)
			b, err := newBench(clientFor(t, d), d, 0, shots)
			if err != nil {
				t.Fatal(err)
			}
			b.opts.MeasLevel = tc.level
			want := tc.ref(twin, b)
			got, err := tc.got(b, d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.IQ, want.IQ) {
				t.Fatalf("stack and hand-assembled module disagree:\n got %v %v\nwant %v %v",
					got.Counts, got.IQ, want.Counts, want.IQ)
			}
			if tc.level == readout.LevelKerneled && len(got.IQ) != shots {
				t.Fatalf("kerneled run returned %d IQ rows, want %d", len(got.IQ), shots)
			}
		})
	}
}

// TestRabiSweepCompilesOnce: a calibration sweep is the template path's
// product traffic — twelve points cost one compilation and eleven binds —
// and its writeback invalidates what the cache held, calibration's own
// kernels included.
func TestRabiSweepCompilesOnce(t *testing.T) {
	ctx := context.Background()
	d := newMiscalibratedSC(t, 0, 0.05)
	cl := clientFor(t, d)
	b, err := newBench(cl, d, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.prep(ctx, false); err != nil { // amplitude-independent: same key after the writeback
		t.Fatal(err)
	}
	base := cl.CacheStats()
	if _, err := RabiCalibrate(ctx, cl, d, 0, 12, 200); err != nil {
		t.Fatal(err)
	}
	st := cl.CacheStats()
	if st.Misses-base.Misses != 1 || st.Binds != 11 || st.Invalidations != 0 {
		t.Fatalf("12-point Rabi: %+v, want 1 miss, 11 binds, 0 invalidations", st)
	}
	if _, err := b.prep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if st := cl.CacheStats(); st.Invalidations != 1 || st.Hits != 0 {
		t.Fatalf("kernel cached before the writeback: %+v, want 1 invalidation and no hit", st)
	}
}
