package optctl

import (
	"math"
	"math/rand"
	"sort"
)

// Objective is a (possibly noisy) scalar function to MINIMIZE; closed-loop
// calibration wraps measured infidelities in one of these.
type Objective func(x []float64) float64

// NelderMeadOptions tunes the simplex optimizer.
type NelderMeadOptions struct {
	// MaxEvals bounds objective evaluations (default 400·dim).
	MaxEvals int
	// InitStep is the initial simplex edge length (default 0.1).
	InitStep float64
	// Tol stops when the simplex f-spread falls below it (default 1e-9).
	Tol float64
}

// NelderMead minimizes f starting from x0 using the standard
// reflection/expansion/contraction/shrink simplex method. It returns the
// best point, its value, and the evaluation count.
func NelderMead(f Objective, x0 []float64, opts NelderMeadOptions) ([]float64, float64, int) {
	n := len(x0)
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 400 * (n + 1)
	}
	if opts.InitStep <= 0 {
		opts.InitStep = 0.1
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

	type vertex struct {
		x []float64
		f float64
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{append([]float64(nil), x0...), eval(x0)}
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		x[i-1] += opts.InitStep
		simplex[i] = vertex{x, eval(x)}
	}
	for evals < opts.MaxEvals {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if simplex[n].f-simplex[0].f < opts.Tol {
			break
		}
		// Centroid of all but worst.
		centroid := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j] / float64(n)
			}
		}
		worst := simplex[n]
		reflect := make([]float64, n)
		for j := 0; j < n; j++ {
			reflect[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := eval(reflect)
		switch {
		case fr < simplex[0].f:
			// Try expansion.
			expand := make([]float64, n)
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + gamma*(reflect[j]-centroid[j])
			}
			fe := eval(expand)
			if fe < fr {
				simplex[n] = vertex{expand, fe}
			} else {
				simplex[n] = vertex{reflect, fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{reflect, fr}
		default:
			// Contraction.
			contract := make([]float64, n)
			for j := 0; j < n; j++ {
				contract[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := eval(contract)
			if fc < worst.f {
				simplex[n] = vertex{contract, fc}
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return simplex[0].x, simplex[0].f, evals
}

// SPSAOptions tunes simultaneous-perturbation stochastic approximation, the
// standard optimizer for shot-noise-limited closed-loop quantum
// calibration.
type SPSAOptions struct {
	// Iters is the iteration count (default 200).
	Iters int
	// A0 is the initial step size (default 0.05).
	A0 float64
	// C0 is the initial perturbation size (default 0.05).
	C0 float64
	// Seed fixes the perturbation stream.
	Seed int64
	// Clip bounds every point evaluated to [-Clip, Clip] when > 0.
	Clip float64
}

// SPSA minimizes a noisy objective with three evaluations per iteration
// (two probes and the new point), every point it evaluates inside the
// Clip box. It returns the best-seen point, its value and the evaluation
// count.
func SPSA(f Objective, x0 []float64, opts SPSAOptions) ([]float64, float64, int) {
	if opts.Iters <= 0 {
		opts.Iters = 200
	}
	if opts.A0 <= 0 {
		opts.A0 = 0.05
	}
	if opts.C0 <= 0 {
		opts.C0 = 0.05
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	n := len(x0)
	x := make([]float64, n)
	for i, v := range x0 {
		x[i] = clamp(v, opts.Clip)
	}
	bestX := append([]float64(nil), x...)
	bestF := f(x)
	evals := 1
	const alpha, gamma = 0.602, 0.101
	for k := 0; k < opts.Iters; k++ {
		ak := opts.A0 / math.Pow(float64(k+1)+10, alpha)
		ck := opts.C0 / math.Pow(float64(k+1), gamma)
		// The probes stay in the box too: on a device, a probe outside it is
		// a play the hardware cannot make.
		delta, xp, xm := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			delta[i] = float64(1 - 2*rng.Intn(2))
			xp[i] = clamp(x[i]+ck*delta[i], opts.Clip)
			xm[i] = clamp(x[i]-ck*delta[i], opts.Clip)
		}
		fp, fm := f(xp), f(xm)
		evals += 2
		for i := range x {
			x[i] = clamp(x[i]-ak*((fp-fm)/(2*ck*delta[i])), opts.Clip)
		}
		if fx := f(x); fx < bestF {
			bestF = fx
			copy(bestX, x)
		}
		evals++
	}
	return bestX, bestF, evals
}
