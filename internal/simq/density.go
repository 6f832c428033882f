package simq

import (
	"fmt"
	"math"
	"math/rand"

	"mqsspulse/internal/linalg"
)

// Density is a density-matrix state, used when decoherence (T1/T2) matters.
type Density struct {
	Dims []int
	Rho  *linalg.Matrix
}

// NewDensity creates |00...0⟩⟨00...0|.
func NewDensity(dims []int) *Density {
	n := 1
	for _, d := range dims {
		if d < 2 {
			panic(fmt.Sprintf("simq: site dimension %d < 2", d))
		}
		n *= d
	}
	rho := linalg.NewMatrix(n, n)
	rho.Set(0, 0, 1)
	return &Density{Dims: append([]int(nil), dims...), Rho: rho}
}

// FromState builds ρ = |ψ⟩⟨ψ|.
func FromState(s *State) *Density {
	return &Density{Dims: append([]int(nil), s.Dims...), Rho: linalg.Outer(s.Amp, s.Amp)}
}

// Dim returns the Hilbert-space dimension.
func (d *Density) Dim() int { return d.Rho.Rows }

// Clone deep-copies.
func (d *Density) Clone() *Density {
	return &Density{Dims: append([]int(nil), d.Dims...), Rho: d.Rho.Clone()}
}

// ApplyFull conjugates ρ → UρU†.
func (d *Density) ApplyFull(u *linalg.Matrix) {
	d.Rho = u.Mul(d.Rho).Mul(u.Dagger())
}

// ApplyAt applies a local unitary to one site.
func (d *Density) ApplyAt(op *linalg.Matrix, site int) {
	full := linalg.EmbedAt(op, d.Dims, site)
	d.ApplyFull(full)
}

// Trace returns tr(ρ) (should remain 1).
func (d *Density) Trace() float64 { return real(d.Rho.Trace()) }

// Populations returns the diagonal of ρ.
func (d *Density) Populations() []float64 {
	p := make([]float64, d.Rho.Rows)
	for i := 0; i < d.Rho.Rows; i++ {
		p[i] = real(d.Rho.At(i, i))
	}
	return p
}

// Expectation returns tr(ρM).
func (d *Density) Expectation(m *linalg.Matrix) complex128 {
	return d.Rho.Mul(m).Trace()
}

// PopulationOfLevel returns P(site at level).
func (d *Density) PopulationOfLevel(site, level int) float64 {
	var p float64
	for i := 0; i < d.Rho.Rows; i++ {
		if SiteLevel(d.Dims, i, site) == level {
			p += real(d.Rho.At(i, i))
		}
	}
	return p
}

// SampleBits draws joint measurement outcomes from the diagonal of ρ.
func (d *Density) SampleBits(rng *rand.Rand, sites []int, shots int) []uint64 {
	return sampleBits(rng, d.Populations(), d.Dims, sites, shots)
}

// StateFidelity returns ⟨ψ|ρ|ψ⟩ for a pure target.
func StateFidelity(rho *Density, psi *State) float64 {
	v := rho.Rho.MulVec(psi.Amp)
	return real(linalg.Dot(psi.Amp, v))
}

// Collapse is a Lindblad jump (collapse) operator with rate γ: contributes
// γ(LρL† − ½{L†L, ρ}) to dρ/dt.
type Collapse struct {
	L    *linalg.Matrix
	Rate float64 // γ in 1/s
}

// collapseSet is the precomputed form of a model's collapse channels: the
// sparse jump operators (the embedded a and a†a have O(n) non-zeros) and
// the sparse decay operator D = Σ γ_k·L_k†L_k. NewSystemModel builds it
// once; the density engine's dissipator reads it and never writes.
type collapseSet struct {
	ops   []sparseCollapse // channels with γ ≠ 0
	decay *linalg.Sparse
}

// sparseCollapse is one collapse channel: the sparse jump operator and
// its rate γ.
type sparseCollapse struct {
	op   *linalg.Sparse
	rate float64
}

func newCollapseSet(n int, collapses []Collapse) *collapseSet {
	cs := &collapseSet{}
	decay := linalg.NewMatrix(n, n)
	for _, c := range collapses {
		if c.Rate == 0 {
			continue
		}
		cs.ops = append(cs.ops, sparseCollapse{op: linalg.NewSparse(c.L), rate: c.Rate})
		decay.AddInPlace(c.L.Dagger().Mul(c.L), complex(c.Rate, 0))
	}
	cs.decay = linalg.NewSparse(decay)
	return cs
}

// dissipatorRHS fills out with Σ γ_k·L_k ρ L_k† − ½(Dρ + ρD), the
// dissipative part of the Lindblad equation, without allocating.
//
//mqss:hotloop
func (s *matStepper) dissipatorRHS(cs *collapseSet, out, rho *linalg.Matrix) {
	clear(out.Data)
	for i := range cs.ops {
		c := &cs.ops[i]
		clear(s.tmp.Data)
		c.op.MulMatAccum(s.tmp, rho, complex(c.rate, 0))
		c.op.MatMulDaggerAccum(out, s.tmp, 1)
	}
	cs.decay.MulMatAccum(out, rho, -0.5)
	cs.decay.MatMulAccum(out, rho, -0.5)
}

// dissipate advances rho by dt under the dissipator alone with one RK4
// step. Combined with an exact unitary conjugation this gives a splitting
// integrator that stays stable for arbitrarily fast Hamiltonian phase
// rotation — RK4 on the full Lindblad generator diverges once ‖H‖·dt
// exceeds its stability region, which a transmon anharmonicity reaches at
// tens of nanoseconds. The stepper's Taylor scratch doubles as the RK4
// buffers (slope in term, evaluation point in work, running sum in acc);
// none of it is live between calls.
//
//mqss:hotloop
func (s *matStepper) dissipate(cs *collapseSet, rho *linalg.Matrix, dt float64) {
	copy(s.acc.Data, rho.Data)
	s.rk4Stage(cs, rho, rho, dt/6, dt/2)
	s.rk4Stage(cs, rho, s.work, dt/3, dt/2)
	s.rk4Stage(cs, rho, s.work, dt/3, dt)
	s.rk4Stage(cs, rho, s.work, dt/6, 0)
	copy(rho.Data, s.acc.Data)
}

// rk4Stage evaluates the slope k at `at`, adds wSum·k to the running sum
// and leaves the next evaluation point rho + wNext·k in s.work.
//
//mqss:hotloop
func (s *matStepper) rk4Stage(cs *collapseSet, rho, at *linalg.Matrix, wSum, wNext float64) {
	s.dissipatorRHS(cs, s.term, at)
	for i, k := range s.term.Data {
		s.acc.Data[i] += complex(wSum*real(k), wSum*imag(k))
		s.work.Data[i] = rho.Data[i] + complex(wNext*real(k), wNext*imag(k))
	}
}

// RelaxationCollapses builds the standard T1/T2 collapse operators for one
// site of dimension dim embedded in dims: amplitude damping at rate 1/T1 on
// the lowering operator and pure dephasing at rate 1/Tφ where
// 1/Tφ = 1/T2 − 1/(2T1). Zero or negative T1/T2 disable the channel.
func RelaxationCollapses(dims []int, site int, t1, t2 float64) []Collapse {
	var out []Collapse
	d := dims[site]
	if t1 > 0 {
		out = append(out, Collapse{
			L:    linalg.EmbedAt(linalg.Annihilation(d), dims, site),
			Rate: 1 / t1,
		})
	}
	if t2 > 0 {
		gammaPhi := 1 / t2
		if t1 > 0 {
			gammaPhi -= 1 / (2 * t1)
		}
		if gammaPhi > 1e-18 {
			// Dephasing via the number operator (generalizes σz/2 to d levels).
			out = append(out, Collapse{
				L:    linalg.EmbedAt(linalg.NumberOp(d), dims, site),
				Rate: 2 * gammaPhi,
			})
		}
	}
	return out
}

// Purity returns tr(ρ²) ∈ [1/d, 1].
func (d *Density) Purity() float64 {
	return real(d.Rho.Mul(d.Rho).Trace())
}

// CheckPhysical verifies trace ≈ 1 and diagonal ∈ [-tol, 1+tol]; used by
// property tests to catch integration blow-ups.
func (d *Density) CheckPhysical(tol float64) error {
	if math.Abs(d.Trace()-1) > tol {
		return fmt.Errorf("simq: trace %g deviates from 1", d.Trace())
	}
	for i, p := range d.Populations() {
		if p < -tol || p > 1+tol {
			return fmt.Errorf("simq: population[%d] = %g outside [0,1]", i, p)
		}
	}
	return nil
}
