// Package simq is the quantum dynamics substrate: state-vector and
// density-matrix simulators with Hamiltonian-level (pulse) time evolution,
// Lindblad decoherence, and shot sampling. The simulated QDMI devices in
// internal/devices execute their pulse payloads through this package.
package simq

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"mqsspulse/internal/linalg"
)

// State is a pure quantum state over a tensor product of sites with
// arbitrary local dimensions (qubits are dim 2; transmons simulated with
// leakage are dim 3).
type State struct {
	Dims []int
	Amp  []complex128
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
	return &State{Dims: append([]int(nil), dims...), Amp: amp}
}

// Dim returns the total Hilbert space dimension.
func (s *State) Dim() int { return len(s.Amp) }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{Dims: append([]int(nil), s.Dims...), Amp: make([]complex128, len(s.Amp))}
	copy(c.Amp, s.Amp)
	return c
}

// Norm returns ⟨ψ|ψ⟩^(1/2).
func (s *State) Norm() float64 { return linalg.Norm2(s.Amp) }

// ApplyFull applies a full-dimension unitary to the state.
func (s *State) ApplyFull(u *linalg.Matrix) {
	if u.Rows != len(s.Amp) {
		panic(fmt.Sprintf("simq: unitary dim %d != state dim %d", u.Rows, len(s.Amp)))
	}
	s.Amp = u.MulVec(s.Amp)
}

// strides returns the stride of each site in the flattened index.
func strides(dims []int) []int {
	st := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= dims[i]
	}
	return st
}

// ApplyAt applies a local operator (dims[site] × dims[site]) to one site
// without building the full tensor product.
func (s *State) ApplyAt(op *linalg.Matrix, site int) {
	d := s.Dims[site]
	if op.Rows != d || op.Cols != d {
		panic(fmt.Sprintf("simq: op dim %d does not match site dim %d", op.Rows, d))
	}
	st := strides(s.Dims)
	stride := st[site]
	block := stride * d
	tmp := make([]complex128, d)
	for base := 0; base < len(s.Amp); base += block {
		for off := 0; off < stride; off++ {
			// Gather the site's amplitudes.
			for k := 0; k < d; k++ {
				tmp[k] = s.Amp[base+off+k*stride]
			}
			for r := 0; r < d; r++ {
				var acc complex128
				row := op.Data[r*d : (r+1)*d]
				for k := 0; k < d; k++ {
					acc += row[k] * tmp[k]
				}
				s.Amp[base+off+r*stride] = acc
			}
		}
	}
}

// ApplyTwo applies a two-site operator to sites (a, b), a != b. The operator
// is indexed with site a as the more significant subsystem.
func (s *State) ApplyTwo(op *linalg.Matrix, a, b int) {
	da, db := s.Dims[a], s.Dims[b]
	if op.Rows != da*db {
		panic(fmt.Sprintf("simq: two-site op dim %d != %d", op.Rows, da*db))
	}
	if a == b {
		panic("simq: ApplyTwo with identical sites")
	}
	st := strides(s.Dims)
	sa, sb := st[a], st[b]
	n := len(s.Amp)
	visited := make([]bool, n)
	tmp := make([]complex128, da*db)
	for idx := 0; idx < n; idx++ {
		if visited[idx] {
			continue
		}
		// Only process indices whose a- and b-components are zero.
		ia := (idx / sa) % da
		ib := (idx / sb) % db
		if ia != 0 || ib != 0 {
			continue
		}
		// Gather the da*db amplitudes of this fiber.
		for x := 0; x < da; x++ {
			for y := 0; y < db; y++ {
				j := idx + x*sa + y*sb
				tmp[x*db+y] = s.Amp[j]
				visited[j] = true
			}
		}
		for r := 0; r < da*db; r++ {
			var acc complex128
			row := op.Data[r*da*db : (r+1)*da*db]
			for k := 0; k < da*db; k++ {
				acc += row[k] * tmp[k]
			}
			x, y := r/db, r%db
			s.Amp[idx+x*sa+y*sb] = acc
		}
	}
}

// Expectation returns ⟨ψ|M|ψ⟩ for a full-dimension operator.
func (s *State) Expectation(m *linalg.Matrix) complex128 {
	return linalg.Dot(s.Amp, m.MulVec(s.Amp))
}

// Probabilities returns |amp|² for every basis index.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.Amp))
	for i, a := range s.Amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// SiteLevel extracts the level of the given site from a flat basis index.
func SiteLevel(dims []int, index, site int) int {
	for i := len(dims) - 1; i > site; i-- {
		index /= dims[i]
	}
	return index % dims[site]
}

// SampleBits draws `shots` joint measurement outcomes for the listed sites.
// Levels above |1⟩ (leakage) discriminate as 1, matching typical dispersive
// readout behaviour. Each shot is a bitmask: bit i set means sites[i]
// measured 1.
func (s *State) SampleBits(rng *rand.Rand, sites []int, shots int) []uint64 {
	return sampleBits(rng, s.Probabilities(), s.Dims, sites, shots)
}

func sampleBits(rng *rand.Rand, probs []float64, dims []int, sites []int, shots int) []uint64 {
	if len(sites) > 64 {
		panic("simq: more than 64 measured sites")
	}
	cum := make([]float64, len(probs))
	total := buildCum(cum, probs)
	out := make([]uint64, shots)
	for k := 0; k < shots; k++ {
		out[k] = siteMask(dims, sites, drawIndex(rng, cum, total))
	}
	return out
}

// buildCum fills cum with the running sum of probs (negative entries —
// numerical noise from Lindblad integration — clamp to zero) and returns
// the total mass.
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

// drawIndex draws one basis index from a cumulative distribution with a
// single uniform variate and a binary search.
func drawIndex(rng *rand.Rand, cum []float64, total float64) int {
	r := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// PopulationOfLevel returns the total probability that `site` occupies
// `level`.
func (s *State) PopulationOfLevel(site, level int) float64 {
	var p float64
	for i, a := range s.Amp {
		if SiteLevel(s.Dims, i, site) == level {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// GlobalPhaseAlign multiplies the state by a global phase so its largest
// amplitude is real positive; useful when comparing states in tests.
func (s *State) GlobalPhaseAlign() {
	var bi int
	var bmag float64
	for i, a := range s.Amp {
		if m := cmplx.Abs(a); m > bmag {
			bmag, bi = m, i
		}
	}
	if bmag == 0 {
		return
	}
	ph := s.Amp[bi] / complex(bmag, 0)
	inv := cmplx.Conj(ph)
	for i := range s.Amp {
		s.Amp[i] *= inv
	}
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
