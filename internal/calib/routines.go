package calib

import (
	"context"
	"fmt"
	"math"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
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

// sitePorts resolves the drive and readout port IDs of a site from the
// device's advertised port list — calibration never assumes naming schemes.
func sitePorts(dev qdmi.Device, site int) (drive, readout string, err error) {
	for _, p := range dev.Ports() {
		if len(p.Sites) != 1 || p.Sites[0] != site {
			continue
		}
		switch p.Kind {
		case pulse.PortDrive:
			drive = p.ID
		case pulse.PortReadout:
			readout = p.ID
		}
	}
	if drive == "" || readout == "" {
		return "", "", fmt.Errorf("calib: site %d has no drive/readout ports", site)
	}
	return drive, readout, nil
}

// gateWaveform fetches the calibrated envelope of op ("x" or "sx") via the
// QDMI default-pulse query.
func gateWaveform(dev qdmi.Device, op string, site int) ([]complex128, error) {
	impl, err := dev.DefaultPulse(op, []int{site})
	if err != nil {
		return nil, fmt.Errorf("calib: default pulse for %s: %w", op, err)
	}
	for _, st := range impl.Steps {
		if st.Kind == "play" && st.Waveform != nil {
			w, err := st.Waveform.Materialize()
			if err != nil {
				return nil, err
			}
			return w.Samples, nil
		}
	}
	return nil, fmt.Errorf("calib: %s impl has no play step", op)
}

// readoutWindow picks the capture length from the measure operation.
func readoutWindow(dev qdmi.Device, site int) int64 {
	if impl, err := dev.DefaultPulse("measure", []int{site}); err == nil {
		for _, st := range impl.Steps {
			if st.Kind == "capture" {
				return st.Samples
			}
		}
	}
	return 128
}

// runP1 submits a single-capture pulse module and returns the observed
// P(bit=1).
func runP1(ctx context.Context, dev qdmi.Device, mod *qir.Module, shots int) (float64, error) {
	job, err := dev.SubmitJob(mod.Emit(), qdmi.FormatQIRPulse, shots)
	if err != nil {
		return 0, err
	}
	if st := job.Wait(ctx); st != qdmi.JobDone {
		_, rerr := job.Result()
		return 0, fmt.Errorf("calib: job %s %v: %v", job.ID(), st, rerr)
	}
	res, err := job.Result()
	if err != nil {
		return 0, err
	}
	return float64(res.Counts[1]) / float64(res.Shots), nil
}

// pulseModule assembles a two-port (drive, readout) pulse-profile module.
func pulseModule(name, drive, readout string, waveforms []qir.WaveformConst, body []qir.Call) *qir.Module {
	return &qir.Module{
		ID: name, Profile: qir.ProfilePulse, EntryName: name,
		NumQubits: 1, NumResults: 1, NumPorts: 2,
		PortNames: []string{drive, readout},
		Waveforms: waveforms,
		Body:      body,
	}
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
func RabiCalibrate(ctx context.Context, dev Target, site int, points, shots int) (*RabiResult, error) {
	if points < 5 {
		points = 12
	}
	if shots <= 0 {
		shots = 400
	}
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return nil, err
	}
	samples, err := gateWaveform(dev, "x", site)
	if err != nil {
		return nil, err
	}
	// Normalize the envelope to unit peak so sweep amplitudes are absolute.
	peak := 0.0
	for _, s := range samples {
		if m := math.Hypot(real(s), imag(s)); m > peak {
			peak = m
		}
	}
	if peak == 0 {
		return nil, fmt.Errorf("calib: degenerate x envelope")
	}
	window := readoutWindow(dev, site)
	res := &RabiResult{Site: site, OldAmp: dev.CalibratedPiAmplitude(site)}
	for i := 0; i < points; i++ {
		amp := 0.08 + (1.0-0.08)*float64(i)/float64(points-1)
		scaled := make([]complex128, len(samples))
		f := complex(amp/peak, 0)
		for j, s := range samples {
			scaled[j] = s * f
		}
		mod := pulseModule(fmt.Sprintf("rabi_%d", i), drive, readout,
			[]qir.WaveformConst{{Name: "sweep", Samples: scaled}},
			[]qir.Call{
				{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sweep")}},
				{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
				{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
			})
		p1, err := runP1(ctx, dev, mod, shots)
		if err != nil {
			return nil, err
		}
		res.Amps = append(res.Amps, amp)
		res.P1s = append(res.P1s, p1)
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
func FineAmplitudeCalibrate(ctx context.Context, dev Target, site int, shots int) (*RabiResult, error) {
	if shots <= 0 {
		shots = 800
	}
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return nil, err
	}
	xw, err := gateWaveform(dev, "x", site)
	if err != nil {
		return nil, err
	}
	sxw, err := gateWaveform(dev, "sx", site)
	if err != nil {
		return nil, err
	}
	window := readoutWindow(dev, site)

	runTrain := func(nPi int) (float64, error) {
		body := []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sx")}},
		}
		for i := 0; i < nPi; i++ {
			body = append(body, qir.Call{Callee: qir.IntrPlay,
				Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("x")}})
		}
		body = append(body,
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
		)
		mod := pulseModule(fmt.Sprintf("fineamp_%d", nPi), drive, readout,
			[]qir.WaveformConst{{Name: "x", Samples: xw}, {Name: "sx", Samples: sxw}}, body)
		return runP1(ctx, dev, mod, shots)
	}
	// Readout floor from a single π pulse.
	pSingle, err := func() (float64, error) {
		body := []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("x")}},
			{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
		}
		mod := pulseModule("fineamp_ref", drive, readout,
			[]qir.WaveformConst{{Name: "x", Samples: xw}}, body)
		return runP1(ctx, dev, mod, shots)
	}()
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
		p, err := runTrain(n)
		if err != nil {
			return nil, err
		}
		meas[i] = p
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
func RamseyCalibrate(ctx context.Context, dev Target, site int, probeHz float64, points, shots int) (*RamseyResult, error) {
	if probeHz <= 0 {
		return nil, fmt.Errorf("calib: probe detuning must be positive")
	}
	if points < 8 {
		points = 16
	}
	if shots <= 0 {
		shots = 400
	}
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return nil, err
	}
	sx, err := gateWaveform(dev, "sx", site)
	if err != nil {
		return nil, err
	}
	rate, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
	if err != nil {
		return nil, err
	}
	window := readoutWindow(dev, site)
	// Sweep τ over ~2.2 probe periods.
	maxTau := 2.2 / probeHz
	fPlus, err := ramseySweep(ctx, dev, drive, readout, sx, +probeHz, maxTau, rate, window, points, shots, probeHz)
	if err != nil {
		return nil, err
	}
	fMinus, err := ramseySweep(ctx, dev, drive, readout, sx, -probeHz, maxTau, rate, window, points, shots, probeHz)
	if err != nil {
		return nil, err
	}
	offset := (fPlus - fMinus) / 2 // = calibrated − true, valid while |offset| < probe
	old := dev.CalibratedFrequency(site)
	res := &RamseyResult{Site: site, OldFreq: old, ProbeHz: probeHz,
		MeasuredOffsetHz: offset, NewFreq: old - offset}
	dev.SetCalibratedFrequency(site, res.NewFreq)
	return res, nil
}

func ramseySweep(ctx context.Context, dev qdmi.Device, drive, readout string, sx []complex128,
	probeHz, maxTau, rate float64, window int64, points, shots int, probeAbs float64) (float64, error) {
	var ts, ys []float64
	for i := 0; i < points; i++ {
		tau := maxTau * float64(i) / float64(points-1)
		tauSamples := int64(math.Round(tau * rate))
		body := []qir.Call{
			{Callee: qir.IntrShiftFrequency, Args: []qir.Arg{qir.PortArg(0), qir.F64Arg(probeHz)}},
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sx")}},
		}
		if tauSamples > 0 {
			body = append(body, qir.Call{Callee: qir.IntrDelay,
				Args: []qir.Arg{qir.PortArg(0), qir.I64Arg(tauSamples)}})
		}
		body = append(body,
			qir.Call{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sx")}},
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
		)
		mod := pulseModule(fmt.Sprintf("ramsey_%d", i), drive, readout,
			[]qir.WaveformConst{{Name: "sx", Samples: sx}}, body)
		p1, err := runP1(ctx, dev, mod, shots)
		if err != nil {
			return 0, err
		}
		ts = append(ts, float64(tauSamples)/rate)
		ys = append(ys, p1)
	}
	return FitOscillation(ts, ys, 0.05*probeAbs, 3*probeAbs)
}

// T1Result reports a relaxation-time measurement.
type T1Result struct {
	Site      int
	T1Seconds float64
}

// MeasureT1 prepares |1⟩, sweeps an idle delay, and fits the exponential
// decay of P(1).
func MeasureT1(ctx context.Context, dev Target, site int, maxDelaySeconds float64, points, shots int) (*T1Result, error) {
	if points < 4 {
		points = 8
	}
	if shots <= 0 {
		shots = 400
	}
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return nil, err
	}
	xw, err := gateWaveform(dev, "x", site)
	if err != nil {
		return nil, err
	}
	rate, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
	if err != nil {
		return nil, err
	}
	window := readoutWindow(dev, site)
	var ts, ys []float64
	for i := 0; i < points; i++ {
		delay := maxDelaySeconds * float64(i) / float64(points-1)
		delaySamples := int64(math.Round(delay * rate))
		body := []qir.Call{
			{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("x")}},
		}
		if delaySamples > 0 {
			body = append(body, qir.Call{Callee: qir.IntrDelay,
				Args: []qir.Arg{qir.PortArg(0), qir.I64Arg(delaySamples)}})
		}
		body = append(body,
			qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
			qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
		)
		mod := pulseModule(fmt.Sprintf("t1_%d", i), drive, readout,
			[]qir.WaveformConst{{Name: "x", Samples: xw}}, body)
		p1, err := runP1(ctx, dev, mod, shots)
		if err != nil {
			return nil, err
		}
		ts = append(ts, float64(delaySamples)/rate)
		ys = append(ys, p1)
	}
	tau, err := FitExponentialDecay(ts, ys)
	if err != nil {
		return nil, err
	}
	return &T1Result{Site: site, T1Seconds: tau}, nil
}

// PulseTrainBenchmark measures amplitude-calibration quality: a train of n
// (odd) π pulses should land in |1⟩; a relative amplitude error ε raises
// the returned error 1 − P(1) by ≈ sin²(n·π·ε/2). This is the benchmark
// that exposes drive-strength drift (laser power, motional-mode movement),
// to which Ramsey sequences are blind.
func PulseTrainBenchmark(ctx context.Context, dev Target, site, n, shots int) (float64, error) {
	if n%2 == 0 {
		return 0, fmt.Errorf("calib: pulse train length must be odd, got %d", n)
	}
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return 0, err
	}
	xw, err := gateWaveform(dev, "x", site)
	if err != nil {
		return 0, err
	}
	window := readoutWindow(dev, site)
	var body []qir.Call
	for i := 0; i < n; i++ {
		body = append(body, qir.Call{Callee: qir.IntrPlay,
			Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("x")}})
	}
	body = append(body,
		qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
		qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
	)
	mod := pulseModule("pulse_train_bench", drive, readout,
		[]qir.WaveformConst{{Name: "x", Samples: xw}}, body)
	p1, err := runP1(ctx, dev, mod, shots)
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
func RamseyErrorBenchmark(ctx context.Context, dev Target, site int, tauSeconds float64, shots int) (float64, error) {
	drive, readout, err := sitePorts(dev, site)
	if err != nil {
		return 0, err
	}
	sx, err := gateWaveform(dev, "sx", site)
	if err != nil {
		return 0, err
	}
	rate, err := qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz)
	if err != nil {
		return 0, err
	}
	window := readoutWindow(dev, site)
	tauSamples := int64(math.Round(tauSeconds * rate))
	body := []qir.Call{
		{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sx")}},
	}
	if tauSamples > 0 {
		body = append(body, qir.Call{Callee: qir.IntrDelay,
			Args: []qir.Arg{qir.PortArg(0), qir.I64Arg(tauSamples)}})
	}
	body = append(body,
		qir.Call{Callee: qir.IntrPlay, Args: []qir.Arg{qir.PortArg(0), qir.WaveformArg("sx")}},
		qir.Call{Callee: qir.IntrBarrier, Args: []qir.Arg{qir.PortArg(0), qir.PortArg(1)}},
		qir.Call{Callee: qir.IntrCapture, Args: []qir.Arg{qir.PortArg(1), qir.ResultArg(0), qir.I64Arg(window)}},
	)
	mod := pulseModule("ramsey_bench", drive, readout,
		[]qir.WaveformConst{{Name: "sx", Samples: sx}}, body)
	p1, err := runP1(ctx, dev, mod, shots)
	if err != nil {
		return 0, err
	}
	return 1 - p1, nil
}
