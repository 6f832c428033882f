package simq

import (
	"cmp"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

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
// generator of the dissipator as one sparse matrix over row-major vec(ρ),
//
//	G = Σ_k γ_k·(L_k ⊗ L_k*) − ½(D ⊗ I + I ⊗ Dᵀ),  D = Σ_k γ_k·L_k†L_k,
//
// so that vec(dρ/dt) = G·vec(ρ) with ρ_ij at index i·n + j. It is stored
// row-compressed: row r's entries are cols/vals[rowStart[r]:rowStart[r+1]],
// columns ascending, exact zeros dropped. The embedded a and a†a have at
// most one non-zero per row, so G has at most (K+1)·n² entries — a few per
// row. NewSystemModel builds it once; the density engine's dissipator reads
// it and never writes.
type collapseSet struct {
	rowStart []int // n²+1 offsets into cols and vals
	cols     []int
	vals     []complex128
}

// empty reports whether there is nothing to dissipate: no channel with a
// non-zero rate, or channels whose generator vanishes identically.
func (cs *collapseSet) empty() bool { return len(cs.vals) == 0 }

// generatorEntry is one contribution to G during assembly.
type generatorEntry struct {
	row, col int
	val      complex128
}

// newCollapseSet assembles G from the non-zeros of the jump operators:
// nnz(L_k)² products per channel for the jump term and n·nnz(D) entries
// for each half of the anticommutator, then one sort to merge entries
// that land on the same (row, col). NewSystemModel has checked that every
// L is n×n and every rate is finite and non-negative.
func newCollapseSet(n int, collapses []Collapse) *collapseSet {
	var entries []generatorEntry
	decay := linalg.NewMatrix(n, n)
	for _, c := range collapses {
		if c.Rate == 0 {
			continue
		}
		l, rate := linalg.NewSparse(c.L), complex(c.Rate, 0)
		for a, va := range l.Vals {
			i, k := l.RowIdx[a], l.ColIdx[a]
			for b, vb := range l.Vals {
				j, m := l.RowIdx[b], l.ColIdx[b]
				// γ·L_ik·conj(L_jm): ρ_km feeds (LρL†)_ij.
				entries = append(entries, generatorEntry{i*n + j, k*n + m, rate * va * cmplx.Conj(vb)})
				// γ·conj(L_ik)·L_im accumulates D_km when a and b share a row.
				if i == j {
					decay.Data[k*n+m] += rate * cmplx.Conj(va) * vb
				}
			}
		}
	}
	d := linalg.NewSparse(decay)
	for a, v := range d.Vals {
		i, k := d.RowIdx[a], d.ColIdx[a]
		for j := 0; j < n; j++ {
			// −½(Dρ)_ij takes D_ik·ρ_kj; −½(ρD)_jk takes ρ_ji·D_ik.
			entries = append(entries,
				generatorEntry{i*n + j, k*n + j, -0.5 * v},
				generatorEntry{j*n + k, j*n + i, -0.5 * v})
		}
	}
	// Stable, so entries of one (row, col) are summed in assembly order and
	// the model is a deterministic function of its collapses.
	slices.SortStableFunc(entries, func(a, b generatorEntry) int {
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})
	cs := &collapseSet{rowStart: make([]int, n*n+1)}
	for a := 0; a < len(entries); {
		e := entries[a]
		for a++; a < len(entries) && entries[a].row == e.row && entries[a].col == e.col; a++ {
			e.val += entries[a].val
		}
		if e.val != 0 {
			cs.cols = append(cs.cols, e.col)
			cs.vals = append(cs.vals, e.val)
			cs.rowStart[e.row+1]++
		}
	}
	for r := 0; r < n*n; r++ {
		cs.rowStart[r+1] += cs.rowStart[r]
	}
	return cs
}

// dissipate advances rho by dt under the dissipator alone with one RK4
// step. Combined with an exact unitary conjugation this gives a splitting
// integrator that stays stable for arbitrarily fast Hamiltonian phase
// rotation — RK4 on the full Lindblad generator diverges once ‖H‖·dt
// exceeds its stability region, which a transmon anharmonicity reaches at
// tens of nanoseconds. The dissipator maps Hermitian matrices to Hermitian
// matrices, so each stage evaluates only the rows i·n + j with i ≤ j of G
// and the step's result is mirrored. The stepper's Taylor scratch doubles
// as the RK4 buffers (running sum in acc, evaluation points alternating
// between work and tmp); none of it is live between calls.
//
//mqss:hotloop
func (s *matStepper) dissipate(cs *collapseSet, rho *linalg.Matrix, dt float64) {
	copy(s.acc.Data, rho.Data)
	s.rk4Stage(cs, rho, rho, s.work, dt/6, dt/2)
	s.rk4Stage(cs, rho, s.work, s.tmp, dt/3, dt/2)
	s.rk4Stage(cs, rho, s.tmp, s.work, dt/3, dt)
	s.rk4Stage(cs, rho, s.work, nil, dt/6, 0)
	n, sum := rho.Rows, s.acc.Data
	for i := 0; i < n; i++ {
		rho.Data[i*n+i] = complex(real(sum[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			rho.Data[i*n+j] = sum[i*n+j]
			rho.Data[j*n+i] = cmplx.Conj(sum[i*n+j])
		}
	}
}

// rk4Stage evaluates the slope k = G·vec(at) on the rows i·n + j with
// i ≤ j — one sparse apply without allocating — and adds wSum·k to the
// running sum's upper triangle. Unless next is nil it writes the next
// evaluation point rho + wNext·k into next's upper triangle and mirrors
// it, so the next stage's sparse apply reads a full Hermitian matrix. at
// and next must not alias.
//
//mqss:hotloop
func (s *matStepper) rk4Stage(cs *collapseSet, rho, at, next *linalg.Matrix, wSum, wNext float64) {
	n, x, cols, vals, sum := rho.Rows, at.Data, cs.cols, cs.vals, s.acc.Data
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r := i*n + j
			var k complex128
			for a := cs.rowStart[r]; a < cs.rowStart[r+1]; a++ {
				k += vals[a] * x[cols[a]]
			}
			sum[r] += complex(wSum*real(k), wSum*imag(k))
			if next == nil {
				continue
			}
			v := rho.Data[r] + complex(wNext*real(k), wNext*imag(k))
			if j == i {
				next.Data[r] = complex(real(v), 0)
				continue
			}
			next.Data[r] = v
			next.Data[j*n+i] = cmplx.Conj(v)
		}
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
