package calib

import (
	"context"
	"fmt"
	"math"

	"mqsspulse/internal/client"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
)

// Calibration is a client of the stack like any other: every routine builds
// QPI kernels and runs them through the client its device is registered on,
// so its jobs are compiled, cached, queued, epoch-gated and traced as user
// jobs are. Tag labels them; Priority puts a due calibration ahead of the
// user work already queued on the device.
const (
	Tag      = "calibration"
	Priority = 100
)

// Target is the device surface calibration routines need: the full QDMI
// device interface plus calibration-table writeback. The simulated devices
// satisfy it; a real QDMI device would expose the writeback through vendor
// configuration calls.
type Target interface {
	qdmi.Device
	CalibratedFrequency(site int) float64
	SetCalibratedFrequency(site int, hz float64)
	CalibratedPiAmplitude(site int) float64
	SetCalibratedPiAmplitude(site int, amp float64)
	Now() float64
}

// bench builds and runs one routine's single-site kernels.
type bench struct {
	cl     *client.Client
	device string
	site   int
	// drive is the site's drive port, as the device's view (qdmi.Target)
	// resolves it — calibration never assumes naming schemes.
	drive *pulse.Port
	// env holds the calibrated "x" and "sx" envelopes of the site.
	env  map[string][]complex128
	opts client.SubmitOptions
}

func newBench(cl *client.Client, dev qdmi.Device, site, shots int) (*bench, error) {
	b := &bench{cl: cl, device: dev.Name(), site: site, env: map[string][]complex128{},
		opts: client.SubmitOptions{Shots: shots, Priority: Priority, Tag: Tag}}
	target := qdmi.NewTarget(dev)
	if b.drive = target.Drive(site); b.drive == nil {
		return nil, fmt.Errorf("calib: site %d has no drive port", site)
	}
	for _, op := range []string{"x", "sx"} {
		w, err := target.Envelope(op, site)
		if err != nil {
			return nil, fmt.Errorf("calib: default pulse for %s: %w", op, err)
		}
		b.env[op] = w.Samples
	}
	return b, nil
}

// kernel begins a kernel on the site that plays the named calibrated gates.
func (b *bench) kernel(name string, gates ...string) *qpi.Circuit {
	return b.play(qpi.NewCircuit(name, b.site+1, 1), gates...)
}

// play appends the calibrated envelopes of the named gates ("x", "sx") to
// the site's drive port, in order.
func (b *bench) play(c *qpi.Circuit, gates ...string) *qpi.Circuit {
	for _, g := range gates {
		if _, defined := c.LookupWaveform(g); !defined {
			c.Waveform(g, b.env[g])
		}
		c.PlayWaveform(b.drive.ID, g)
	}
	return c
}

// run measures the site (barrier, then a capture over the device's readout
// window), finishes the kernel and runs it.
func (b *bench) run(ctx context.Context, c *qpi.Circuit) (*qpi.Result, error) {
	if err := c.Measure(b.site, 0).End(); err != nil {
		return nil, err
	}
	return b.cl.RunCtx(ctx, c, b.device, b.opts)
}

// p1 is run reduced to the observed P(bit=1).
func (b *bench) p1(ctx context.Context, c *qpi.Circuit) (float64, error) {
	res, err := b.run(ctx, c)
	if err != nil {
		return 0, err
	}
	return res.Probability(1), nil
}

// sweepP1 measures the site, then runs the kernel — a template whose one
// slot is param — at every value: one compilation, one bind per point.
func (b *bench) sweepP1(ctx context.Context, c *qpi.Circuit, param ptemplate.Param, values []float64) ([]float64, error) {
	if err := c.Measure(b.site, 0).End(); err != nil {
		return nil, err
	}
	tpl, err := ptemplate.New(c, param)
	if err != nil {
		return nil, err
	}
	points := make([]ptemplate.Bindings, len(values))
	for i, v := range values {
		points[i] = ptemplate.Bindings{param.Name: v}
	}
	results, err := b.cl.RunSweep(ctx, tpl, b.device, points, b.opts)
	if err != nil {
		return nil, err
	}
	p1s := make([]float64, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		p1s[i] = r.Result.Probability(1)
	}
	return p1s, nil
}

// RabiResult reports an amplitude calibration.
type RabiResult struct {
	Site   int
	OldAmp float64
	NewAmp float64
	Amps   []float64
	P1s    []float64
}

// RabiCalibrate sweeps the drive amplitude, fits the Rabi oscillation, and
// writes the corrected π amplitude back into the device calibration table.
func RabiCalibrate(ctx context.Context, cl *client.Client, dev Target, site int, points, shots int) (*RabiResult, error) {
	if points < 5 {
		points = 12
	}
	if shots <= 0 {
		shots = 400
	}
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return nil, err
	}
	samples := b.env["x"]
	// Sweep amplitudes are absolute: the slot scales the calibrated envelope
	// by amp/peak.
	peak := 0.0
	for _, s := range samples {
		if m := math.Hypot(real(s), imag(s)); m > peak {
			peak = m
		}
	}
	if peak == 0 {
		return nil, fmt.Errorf("calib: degenerate x envelope")
	}
	res := &RabiResult{Site: site, OldAmp: dev.CalibratedPiAmplitude(site)}
	scales := make([]float64, points)
	for i := range scales {
		amp := 0.08 + (1.0-0.08)*float64(i)/float64(points-1)
		res.Amps = append(res.Amps, amp)
		scales[i] = amp / peak
	}
	c := b.kernel("rabi").WaveformP("sweep", samples, qpi.Sym("scale")).PlayWaveform(b.drive.ID, "sweep")
	res.P1s, err = b.sweepP1(ctx, c,
		ptemplate.Param{Name: "scale", Min: scales[0], Max: scales[points-1]}, scales)
	if err != nil {
		return nil, err
	}
	k, err := FitRabiRate(res.Amps, res.P1s)
	if err != nil {
		return nil, err
	}
	newAmp := math.Pi / k
	if newAmp > 1 || newAmp < 0.02 {
		return nil, fmt.Errorf("%w: fitted π amplitude %g out of range", ErrFitFailed, newAmp)
	}
	res.NewAmp = newAmp
	dev.SetCalibratedPiAmplitude(site, newAmp)
	return res, nil
}

// FineAmplitudeCalibrate refines the π-pulse amplitude with error
// amplification: an sx pre-rotation followed by N π pulses rotates by
// (2N+1)·(π/2)·(1+ε), so a relative amplitude error ε moves P(1) off 1/2
// with slope ∝ N — pushing the fit precision far below the coarse Rabi
// sweep's shot-noise floor (the practice behind fine-amplitude schemas and
// the adaptive tracking of the paper's reference [4]).
func FineAmplitudeCalibrate(ctx context.Context, cl *client.Client, dev Target, site int, shots int) (*RabiResult, error) {
	if shots <= 0 {
		shots = 800
	}
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return nil, err
	}
	// Readout floor from a single π pulse.
	pSingle, err := b.p1(ctx, b.kernel("fineamp_ref", "x"))
	if err != nil {
		return nil, err
	}
	r := (1 - pSingle)
	if r < 0 {
		r = 0
	}
	if r > 0.4 {
		return nil, fmt.Errorf("%w: readout floor %g too high for fine calibration", ErrFitFailed, r)
	}

	trains := []int{1, 3, 5, 9}
	meas := make([]float64, len(trains))
	for i, n := range trains {
		c := b.kernel(fmt.Sprintf("fineamp_%d", n), "sx")
		for range n {
			b.play(c, "x")
		}
		if meas[i], err = b.p1(ctx, c); err != nil {
			return nil, err
		}
	}
	model := func(eps float64, n int) float64 {
		theta := (2*float64(n) + 1) * math.Pi / 2 * (1 + eps)
		p := math.Pow(math.Sin(theta/2), 2)
		return p*(1-2*r) + r
	}
	sse := func(eps float64) float64 {
		var s float64
		for i, n := range trains {
			d := meas[i] - model(eps, n)
			s += d * d
		}
		return s
	}
	eps := goldenMin(sse, -0.08, 0.08, 80)
	old := dev.CalibratedPiAmplitude(site)
	newAmp := old / (1 + eps)
	if newAmp <= 0 || newAmp > 1 {
		return nil, fmt.Errorf("%w: fine amplitude %g out of range", ErrFitFailed, newAmp)
	}
	dev.SetCalibratedPiAmplitude(site, newAmp)
	return &RabiResult{Site: site, OldAmp: old, NewAmp: newAmp}, nil
}

// RamseyResult reports a frequency calibration.
type RamseyResult struct {
	Site    int
	OldFreq float64
	NewFreq float64
	// MeasuredOffsetHz is the inferred (calibrated − true) error.
	MeasuredOffsetHz float64
	ProbeHz          float64
}

// RamseyCalibrate measures the qubit frequency error with two detuned
// Ramsey fringe sweeps (±probe to resolve the sign) and writes the
// corrected frequency back. The probe detuning must exceed the expected
// error magnitude.
func RamseyCalibrate(ctx context.Context, cl *client.Client, dev Target, site int, probeHz float64, points, shots int) (*RamseyResult, error) {
	if probeHz <= 0 {
		return nil, fmt.Errorf("calib: probe detuning must be positive")
	}
	if points < 8 {
		points = 16
	}
	if shots <= 0 {
		shots = 400
	}
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return nil, err
	}
	// Sweep τ over ~2.2 probe periods.
	taus, ts := make([]float64, points), make([]float64, points)
	for i := range taus {
		taus[i] = math.Round(2.2 / probeHz * float64(i) / float64(points-1) * b.drive.SampleRateHz)
		ts[i] = taus[i] / b.drive.SampleRateHz
	}
	old := dev.CalibratedFrequency(site)
	fringe := func(detuneHz float64) (float64, error) {
		c := b.kernel("ramsey").FrameChange(b.drive.ID, old+detuneHz, 0)
		b.play(c, "sx").DelayP(b.drive.ID, qpi.Sym("tau"))
		p1s, err := b.sweepP1(ctx, b.play(c, "sx"), ptemplate.Param{Name: "tau", Max: taus[points-1]}, taus)
		if err != nil {
			return 0, err
		}
		return FitOscillation(ts, p1s, 0.05*probeHz, 3*probeHz)
	}
	fPlus, err := fringe(+probeHz)
	if err != nil {
		return nil, err
	}
	fMinus, err := fringe(-probeHz)
	if err != nil {
		return nil, err
	}
	offset := (fPlus - fMinus) / 2 // = calibrated − true, valid while |offset| < probe
	res := &RamseyResult{Site: site, OldFreq: old, ProbeHz: probeHz,
		MeasuredOffsetHz: offset, NewFreq: old - offset}
	dev.SetCalibratedFrequency(site, res.NewFreq)
	return res, nil
}

// PulseTrainBenchmark measures amplitude-calibration quality: a train of n
// (odd) π pulses should land in |1⟩; a relative amplitude error ε raises
// the returned error 1 − P(1) by ≈ sin²(n·π·ε/2). This is the benchmark
// that exposes drive-strength drift (laser power, motional-mode movement),
// to which Ramsey sequences are blind.
func PulseTrainBenchmark(ctx context.Context, cl *client.Client, dev Target, site, n, shots int) (float64, error) {
	if n%2 == 0 {
		return 0, fmt.Errorf("calib: pulse train length must be odd, got %d", n)
	}
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return 0, err
	}
	c := b.kernel("pulse_train_bench")
	for range n {
		b.play(c, "x")
	}
	p1, err := b.p1(ctx, c)
	if err != nil {
		return 0, err
	}
	return 1 - p1, nil
}

// RamseyErrorBenchmark measures the drift-sensitive benchmark used by the
// calibration experiments: a resonant Ramsey sequence (sx — idle τ — sx)
// that should land in |1⟩ when the frame is exactly on resonance. The
// returned error is 1 − P(1); frequency miscalibration Δ raises it by
// ≈ sin²(π·Δ·τ).
func RamseyErrorBenchmark(ctx context.Context, cl *client.Client, dev Target, site int, tauSeconds float64, shots int) (float64, error) {
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return 0, err
	}
	c := b.kernel("ramsey_bench", "sx").Delay(b.drive.ID, int64(math.Round(tauSeconds*b.drive.SampleRateHz)))
	p1, err := b.p1(ctx, b.play(c, "sx"))
	if err != nil {
		return 0, err
	}
	return 1 - p1, nil
}
