package main

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file is the reference side of the benchmark: nothing in it calls
// the compiler or the simulator, so a bug shared by both cannot hide here.

// idealProbs interprets a gate list on an ideal two-qubit state vector
// (amplitude index = q0 + 2·q1, which is also the classical bitmask
// because qubit i is measured into bit i) and returns the four outcome
// probabilities.
func idealProbs(gates []gate) [4]float64 {
	amp := [4]complex128{1}
	one := func(q int, m [2][2]complex128) {
		bit := 1 << q
		for i := 0; i < 4; i++ {
			if i&bit != 0 {
				continue
			}
			a0, a1 := amp[i], amp[i|bit]
			amp[i] = m[0][0]*a0 + m[0][1]*a1
			amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
	rx := func(theta float64) [2][2]complex128 {
		c, s := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
		return [2][2]complex128{{c, s}, {s, c}}
	}
	h := complex(1/math.Sqrt2, 0)
	for _, g := range gates {
		switch g.Name {
		case "x":
			one(g.Q, [2][2]complex128{{0, 1}, {1, 0}})
		case "h":
			one(g.Q, [2][2]complex128{{h, h}, {h, -h}})
		case "sx":
			one(g.Q, rx(math.Pi/2))
		case "rx":
			one(g.Q, rx(g.Theta))
		case "rz":
			p := cmplx.Exp(complex(0, g.Theta/2))
			one(g.Q, [2][2]complex128{{cmplx.Conj(p), 0}, {0, p}})
		case "cz":
			amp[3] = -amp[3]
		}
	}
	var p [4]float64
	for i, a := range amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// withReadoutError applies an independent symmetric bit flip of
// probability 1−f to each of the two measured bits.
func withReadoutError(p [4]float64, f float64) [4]float64 {
	var out [4]float64
	for truth, pt := range p {
		for seen := 0; seen < 4; seen++ {
			w := pt
			for bit := 0; bit < 2; bit++ {
				if (truth>>bit)&1 == (seen>>bit)&1 {
					w *= f
				} else {
					w *= 1 - f
				}
			}
			out[seen] += w
		}
	}
	return out
}

// tvDistance is the total-variation distance between observed counts and
// an expected distribution over the two-bit outcomes.
func tvDistance(counts map[uint64]int, shots int, want [4]float64) float64 {
	d := 0.0
	for mask := uint64(0); mask < 4; mask++ {
		d += math.Abs(float64(counts[mask])/float64(shots) - want[mask])
	}
	return d / 2
}

// tvBound is the largest total-variation distance shot noise alone may
// produce between an empirical distribution over k outcomes at n shots and
// its true distribution, except with probability delta: the
// Bretagnolle–Huber–Carol inequality P(‖p̂−p‖₁ ≥ ε) ≤ 2ᵏ·exp(−nε²/2),
// solved for ε and halved.
func tvBound(k, n int, delta float64) float64 {
	return math.Sqrt(2*(float64(k)*math.Ln2-math.Log(delta))/float64(n)) / 2
}

// checkSigmas is the half-width, in standard deviations, of every
// binomial acceptance interval below: a correct stack fails one check with
// probability about 2e-9.
const checkSigmas = 6

// checkCount accepts an observed count whose distance from its mean is
// within checkSigmas standard deviations (plus one count of rounding).
func checkCount(what string, observed, mean, variance float64) error {
	if tol := checkSigmas*math.Sqrt(variance) + 1; math.Abs(observed-mean) > tol {
		return fmt.Errorf("%s: observed %.0f, expected %.1f ± %.1f", what, observed, mean, tol)
	}
	return nil
}

// rabiP1 is the probability of reading 1 after RX(theta) on |0⟩ through a
// readout of assignment fidelity f: sin²(θ/2) pushed through the flip.
func rabiP1(theta, f float64) float64 {
	s := math.Sin(theta / 2)
	return f*s*s + (1-f)*(1-s*s)
}
