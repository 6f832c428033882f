// Package calib implements automated calibration — the paper's first
// pulse-level use case (Section 2.1). Routines drive the device exclusively
// through QDMI pulse payloads (no access to the simulator's hidden truth),
// fit the measured curves, and write updated parameters back into the
// device's calibration table. A scheduler plans technology-appropriate
// calibration cadences (minutes for neutral atoms, tens of minutes to hours
// for superconducting qubits, hours for trapped ions).
package calib

import (
	"errors"
	"fmt"
	"math"
)

// ErrFitFailed signals that a calibration curve could not be fit.
var ErrFitFailed = errors.New("calib: fit failed")

// goldenMin minimizes f on [a, b] by golden-section search.
func goldenMin(f func(float64) float64, a, b float64, iters int) float64 {
	const phi = 1.618033988749895
	invPhi := 1 / phi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// cosineSSE computes, for a trial frequency f (Hz), the least-squares
// residual of fitting y ≈ p·cos(2πft) + q·sin(2πft) + c, solving the linear
// subproblem in closed form. It returns the residual and the amplitude
// A = hypot(p, q).
func cosineSSE(ts, ys []float64, f float64) (sse, amp float64) {
	n := float64(len(ts))
	var scc, scs, css, sc, ss, sy, syc, sys float64
	for i, t := range ts {
		cw := math.Cos(2 * math.Pi * f * t)
		sw := math.Sin(2 * math.Pi * f * t)
		scc += cw * cw
		css += sw * sw
		scs += cw * sw
		sc += cw
		ss += sw
		sy += ys[i]
		syc += ys[i] * cw
		sys += ys[i] * sw
	}
	// Solve the 3x3 normal equations for (p, q, c).
	m := [3][4]float64{
		{scc, scs, sc, syc},
		{scs, css, ss, sys},
		{sc, ss, n, sy},
	}
	if !gauss3(&m) {
		return math.Inf(1), 0
	}
	p, q, c := m[0][3], m[1][3], m[2][3]
	for i, t := range ts {
		model := p*math.Cos(2*math.Pi*f*t) + q*math.Sin(2*math.Pi*f*t) + c
		r := ys[i] - model
		sse += r * r
	}
	return sse, math.Hypot(p, q)
}

// gauss3 solves a 3x3 augmented system in place; returns false if singular.
func gauss3(m *[3][4]float64) bool {
	for col := 0; col < 3; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for j := col; j < 4; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			factor := m[r][col]
			for j := col; j < 4; j++ {
				m[r][j] -= factor * m[col][j]
			}
		}
	}
	return true
}

// FitOscillation estimates the dominant oscillation frequency of y(t) by a
// coarse grid search over [fMin, fMax] followed by golden-section
// refinement. It returns the frequency in Hz.
func FitOscillation(ts, ys []float64, fMin, fMax float64) (float64, error) {
	if len(ts) != len(ys) || len(ts) < 5 {
		return 0, fmt.Errorf("%w: need at least 5 points", ErrFitFailed)
	}
	if fMin < 0 || fMax <= fMin {
		return 0, fmt.Errorf("%w: bad frequency window [%g, %g]", ErrFitFailed, fMin, fMax)
	}
	const gridPoints = 400
	best := fMin
	bestSSE := math.Inf(1)
	for i := 0; i <= gridPoints; i++ {
		f := fMin + (fMax-fMin)*float64(i)/gridPoints
		sse, _ := cosineSSE(ts, ys, f)
		if sse < bestSSE {
			bestSSE, best = sse, f
		}
	}
	// Refine around the best grid point.
	step := (fMax - fMin) / gridPoints
	lo := math.Max(fMin, best-2*step)
	hi := math.Min(fMax, best+2*step)
	refined := goldenMin(func(f float64) float64 {
		sse, _ := cosineSSE(ts, ys, f)
		return sse
	}, lo, hi, 60)
	_, amp := cosineSSE(ts, ys, refined)
	if amp < 0.05 {
		return 0, fmt.Errorf("%w: oscillation amplitude %g too small", ErrFitFailed, amp)
	}
	return refined, nil
}

// FitRabiRate fits P1(a) = sin²(k·a/2) over amplitude sweep data and
// returns k (radians of rotation per unit amplitude). The π amplitude is
// then π/k.
func FitRabiRate(amps, p1s []float64) (float64, error) {
	if len(amps) != len(p1s) || len(amps) < 5 {
		return 0, fmt.Errorf("%w: need at least 5 points", ErrFitFailed)
	}
	sse := func(k float64) float64 {
		var s float64
		for i, a := range amps {
			model := math.Pow(math.Sin(k*a/2), 2)
			r := p1s[i] - model
			s += r * r
		}
		return s
	}
	// k is typically near π/a_π; search a generous window.
	const gridPoints = 600
	kMin, kMax := 0.2*math.Pi, 6*math.Pi
	best, bestSSE := kMin, math.Inf(1)
	for i := 0; i <= gridPoints; i++ {
		k := kMin + (kMax-kMin)*float64(i)/gridPoints
		if s := sse(k); s < bestSSE {
			bestSSE, best = s, k
		}
	}
	step := (kMax - kMin) / gridPoints
	k := goldenMin(sse, math.Max(kMin, best-2*step), math.Min(kMax, best+2*step), 60)
	if sse(k) > 0.05*float64(len(amps)) {
		return 0, fmt.Errorf("%w: residual too large (%g)", ErrFitFailed, sse(k))
	}
	return k, nil
}
