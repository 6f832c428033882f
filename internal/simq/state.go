// Package simq is the quantum dynamics substrate: state-vector and
// density-matrix simulators with Hamiltonian-level (pulse) time evolution,
// Lindblad decoherence, and shot sampling. The simulated QDMI devices in
// internal/devices execute their pulse payloads through this package.
package simq

import (
	"fmt"
	"math"

	"mqsspulse/internal/linalg"
)

// State is a pure quantum state over a tensor product of sites with
// arbitrary local dimensions (qubits are dim 2; transmons simulated with
// leakage are dim 3). It holds the amplitudes alone: the site dimensions are
// its model's.
type State struct {
	Amp []complex128
}

// NewState creates |00...0⟩ over the given local dimensions.
func NewState(dims []int) *State {
	n := 1
	for _, d := range dims {
		if d < 2 {
			panic(fmt.Sprintf("simq: site dimension %d < 2", d))
		}
		n *= d
	}
	amp := make([]complex128, n)
	amp[0] = 1
	return &State{Amp: amp}
}

// Norm returns ⟨ψ|ψ⟩^(1/2).
func (s *State) Norm() float64 { return linalg.Norm2(s.Amp) }

// SiteLevel extracts the level of the given site from a flat basis index.
func SiteLevel(dims []int, index, site int) int {
	for i := len(dims) - 1; i > site; i-- {
		index /= dims[i]
	}
	return index % dims[site]
}

// buildCum fills cum with the running sum of probs (negative entries —
// numerical noise from Lindblad integration — clamp to zero) and returns
// the total mass. cum may be probs itself.
func buildCum(cum, probs []float64) float64 {
	acc := 0.0
	for i, p := range probs {
		if p < 0 {
			p = 0
		}
		acc += p
		cum[i] = acc
	}
	return acc
}

// drawIndex maps a uniform variate u in [0, 1) to a basis index of the
// cumulative distribution cum with total mass total: the first i with
// cum[i] ≥ u·total, clamped to the last index. The search halves the range
// by a step masked with the comparison, not a branch on it, so a random u
// costs no mispredicted branches. cum is non-decreasing unless total is
// NaN, and then u·total is NaN and every comparison false: the draw is
// index 0, as with an ordinary binary search.
//
//mqss:hotloop
func drawIndex(cum []float64, total, u float64) int {
	r := u * total
	base, n := 0, len(cum)-1
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n / 2
		base += half & -less(cum[base+half], r)
		n -= half
	}
	return base + less(cum[base], r)
}

// less is a < b as 0 or 1, which compiles to a flag set, not a branch.
func less(a, b float64) int {
	var x int
	if a < b {
		x = 1
	}
	return x
}

// siteMask assembles the measured bitmask of one basis index: bit i set
// means sites[i] occupies level ≥ 1 (leakage discriminates as 1, matching
// typical dispersive readout behaviour).
func siteMask(dims, sites []int, idx int) uint64 {
	var bits uint64
	for bi, site := range sites {
		if SiteLevel(dims, idx, site) >= 1 {
			bits |= 1 << uint(bi)
		}
	}
	return bits
}

// Fidelity returns |⟨a|b⟩|² for two pure states.
func Fidelity(a, b *State) float64 {
	d := linalg.Dot(a.Amp, b.Amp)
	return real(d)*real(d) + imag(d)*imag(d)
}

// Renormalize rescales to unit norm (drift control for long integrations).
func (s *State) Renormalize() {
	n := s.Norm()
	if n == 0 || math.Abs(n-1) < 1e-15 {
		return
	}
	inv := complex(1/n, 0)
	for i := range s.Amp {
		s.Amp[i] *= inv
	}
}
