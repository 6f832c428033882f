package calib

import (
	"context"
	"fmt"
	"math/cmplx"

	"mqsspulse/internal/client"
	"mqsspulse/internal/optctl"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/waveform"
)

// MismatchStudyResult compares the three optimal-control strategies of the
// paper's Section 2.1 on one site. Device values are the fidelity proxy
// F̂ = ½[P(1|pulse) + P(0|pulse²)], each re-measured with fresh shots once
// its optimizer has finished.
type MismatchStudyResult struct {
	// Problem is GRAPE's model of the site, as QDMI advertises it.
	Problem     optctl.TransmonXProblem
	GrapeF      float64 // GRAPE's fidelity on its own model
	GrapeIters  int
	OpenLoopF   float64 // the GRAPE pulse on the device
	ClosedLoopF float64 // SPSA on the device from a Gaussian seed
	HybridF     float64 // SPSA on the device from the GRAPE pulse; installed as "x"
	// Evals counts device evaluations, each two client jobs.
	Evals int
}

// RunMismatchStudy designs an X pulse for site three ways: open-loop GRAPE
// against the model QDMI advertises (anharmonicity, drive port grid, and the
// Rabi rate the calibrated π pulse implies), closed-loop SPSA against the
// device from a Gaussian seed, and the hybrid — SPSA seeded with the GRAPE
// pulse. Every device evaluation is two client jobs of shots each. The
// model is only as right as the device's calibration, so a stale one is the
// mismatch. The hybrid pulse is then installed as the site's "x". The first
// evaluation that fails ends the study with its error.
func RunMismatchStudy(ctx context.Context, cl *client.Client, dev Target, site, shots int, seed int64) (*MismatchStudyResult, error) {
	b, err := newBench(cl, dev, site, shots)
	if err != nil {
		return nil, err
	}
	v, err := dev.QuerySiteProperty(site, qdmi.SitePropAnharmonicityHz)
	if err != nil {
		return nil, err
	}
	anharm, ok := v.(float64)
	if !ok {
		return nil, fmt.Errorf("calib: site %d anharmonicity is %T", site, v)
	}
	var area complex128
	for _, s := range b.env["x"] {
		area += s
	}
	dt, gran := 1/b.drive.SampleRateHz, max(b.drive.Granularity, 1)
	res := &MismatchStudyResult{Problem: optctl.TransmonXProblem{
		Slots: (len(b.env["x"]) + gran - 1) / gran * gran, Dt: dt, AnharmHz: anharm,
		// A π pulse's area is 1/(2·Rabi·dt) samples.
		RabiHz: 1 / (2 * dt * cmplx.Abs(area)),
	}}
	target, proj := optctl.TargetX()
	gr, err := optctl.GrapeUnitary(res.Problem.ModelSystem(), target, proj, res.Problem.GaussianSeed(),
		optctl.GrapeOptions{Iters: 150, Tol: 1e-7})
	if err != nil {
		return nil, err
	}
	res.GrapeF, res.GrapeIters = gr.Fidelity, gr.Iterations

	// proxy measures F̂ of the control pulse x with two client jobs: the
	// pulse, and the pulse twice (leakage reads as 1, so the second sees it).
	// After the first failure it runs nothing.
	var evalErr error
	proxy := func(x []float64) float64 {
		if evalErr != nil {
			return 0
		}
		b.env["pulse"] = b.controlSamples(x)
		once, err := b.p1(ctx, b.kernel("optctl_once", "pulse"))
		var twice float64
		if err == nil {
			twice, err = b.p1(ctx, b.kernel("optctl_twice", "pulse", "pulse"))
		}
		if err != nil {
			evalErr = fmt.Errorf("calib: optimal control evaluation %d: %w", res.Evals+1, err)
			return 0
		}
		res.Evals++
		return (once + 1 - twice) / 2
	}
	objective := func(x []float64) float64 { return 1 - proxy(x) }
	// SPSA's steps are sized to stay above the shot noise of a proxy, which
	// brings both loops to the readout ceiling within 150 iterations on the
	// sc preset; its box is the port's full scale.
	opts := optctl.SPSAOptions{Iters: 150, A0: 0.5, C0: 0.1, Seed: seed, Clip: b.drive.MaxAmplitude}
	res.OpenLoopF = proxy(gr.Pulse.Flatten())
	xc, _, _ := optctl.SPSA(objective, res.Problem.GaussianSeed().Flatten(), opts)
	res.ClosedLoopF = proxy(xc)
	opts.Seed++
	xh, _, _ := optctl.SPSA(objective, gr.Pulse.Flatten(), opts)
	res.HybridF = proxy(xh)
	if evalErr != nil {
		return nil, evalErr
	}
	spec := waveform.Spec{Name: "x_optctl"}
	for _, s := range b.controlSamples(xh) {
		spec.Samples = append(spec.Samples, [2]float64{real(s), imag(s)})
	}
	if err := dev.SetPulseImpl("x", []int{site}, &qdmi.PulseImpl{Operation: "x", Steps: []qdmi.PulseStep{
		{Kind: "play", PortRole: "drive0", Waveform: &spec},
	}}); err != nil {
		return nil, err
	}
	return res, nil
}

// controlSamples maps a control pulse x (optctl.Pulse.Flatten order: the
// in-phase and quadrature amplitude of each slot) to drive samples
// s_k = u_x − i·u_y, each held to the drive port's full scale.
func (b *bench) controlSamples(x []float64) []complex128 {
	s := make([]complex128, len(x)/2)
	for k := range s {
		s[k] = complex(x[2*k], -x[2*k+1])
		if m, full := cmplx.Abs(s[k]), b.drive.MaxAmplitude; full > 0 && m > full {
			s[k] *= complex(full/m, 0)
		}
	}
	return s
}
