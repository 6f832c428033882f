package simq

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"

	"mqsspulse/internal/linalg"
)

// Density is a density-matrix state, used when decoherence (T1/T2) matters.
// It holds ρ alone: the site dimensions are its model's.
type Density struct {
	Rho *linalg.Matrix
}

// NewDensity creates |00...0⟩⟨00...0| over the given local dimensions. The
// Density and its matrix header are one allocation, the entries a second.
func NewDensity(dims []int) *Density {
	n := 1
	for _, d := range dims {
		if d < 2 {
			panic(fmt.Sprintf("simq: site dimension %d < 2", d))
		}
		n *= d
	}
	b := &struct {
		Density
		rho linalg.Matrix
	}{rho: linalg.Matrix{Rows: n, Cols: n, Data: make([]complex128, n*n)}}
	b.rho.Set(0, 0, 1)
	b.Density = Density{Rho: &b.rho}
	return &b.Density
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
// row. NewSystemModel builds it once; the density engine steps with the
// maps built from it (stepMap), and nothing writes it.
type collapseSet struct {
	n        int   // the Hilbert dimension; vec(ρ) has n² entries
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
	cs := &collapseSet{n: n, rowStart: make([]int, n*n+1)}
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

// stepMap is one classical RK4 step of the dissipator as a linear map on
// vec(ρ). G is constant, so RK4 on vec(dρ/dt) = G·vec(ρ) is exactly
//
//	M(h) = I + hG + (hG)²/2 + (hG)³/6 + (hG)⁴/24
//
// for a step of h seconds. The dissipator maps Hermitian matrices to
// Hermitian matrices, so only the rows i·n + j with i ≤ j are kept, in
// row-major order: upper row k's entries are cols/vals[rowStart[k]:
// rowStart[k+1]], columns ascending over the whole of vec(ρ), exact zeros
// dropped. The Executor memoizes one per step size; it is never written
// after the build.
type stepMap struct {
	rowStart []int // n(n+1)/2+1 offsets into cols and vals
	cols     []int
	vals     []complex128
}

// stepMap builds M(h) row by row. Row r is e_r + u₁ + u₂ + u₃ + u₄ with
// u_k = (h/k)·u_{k−1}·G and u₀ = e_r: four row-vector × G products, each
// summing G's rows in ascending order of the vector's non-zeros, so the
// map is a deterministic function of the model and h. Its cost is about
// 4·nnz(M)·(entries per row of G), once per executor and step size.
func (cs *collapseSet) stepMap(h float64) *stepMap {
	n := cs.n
	m := &stepMap{rowStart: make([]int, 1, n*(n+1)/2+1)}
	row, cur, next := newSparseAcc(n*n), newSparseAcc(n*n), newSparseAcc(n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r := i*n + j
			row.add(r, 1)
			cur.add(r, 1)
			for k := 1; k <= 4; k++ {
				w := complex(h/float64(k), 0)
				for _, c := range cur.idx {
					v := w * cur.val[c]
					for a := cs.rowStart[c]; a < cs.rowStart[c+1]; a++ {
						next.add(cs.cols[a], v*cs.vals[a])
					}
				}
				slices.Sort(next.idx) // the next product's order, too
				for _, c := range next.idx {
					row.add(c, next.val[c])
				}
				cur.clear()
				cur, next = next, cur
			}
			cur.clear()
			slices.Sort(row.idx)
			for _, c := range row.idx {
				if v := row.val[c]; v != 0 {
					m.cols = append(m.cols, c)
					m.vals = append(m.vals, v)
				}
			}
			row.clear()
			m.rowStart = append(m.rowStart, len(m.cols))
		}
	}
	return m
}

// sparseAcc is a dense vector that lists the indices it has written, so
// clearing it costs its non-zeros, not its length.
type sparseAcc struct {
	val []complex128
	set []bool
	idx []int
}

func newSparseAcc(n int) *sparseAcc {
	return &sparseAcc{val: make([]complex128, n), set: make([]bool, n)}
}

// add accumulates v into entry c.
func (a *sparseAcc) add(c int, v complex128) {
	if !a.set[c] {
		a.set[c] = true
		a.idx = append(a.idx, c)
	}
	a.val[c] += v
}

// clear zeroes every written entry.
func (a *sparseAcc) clear() {
	for _, c := range a.idx {
		a.val[c], a.set[c] = 0, false
	}
	a.idx = a.idx[:0]
}

// dissipate advances rho by one RK4 step of the dissipator alone: one
// sparse apply of the step map into the stepper's acc scratch, then the
// upper triangle written back with a real diagonal and mirrored below.
// Combined with an exact unitary conjugation this gives a splitting
// integrator that stays stable for arbitrarily fast Hamiltonian phase
// rotation — RK4 on the full Lindblad generator diverges once ‖H‖·dt
// exceeds its stability region, which a transmon anharmonicity reaches at
// tens of nanoseconds. rho must be Hermitian; it comes back exactly so.
//
//mqss:hotloop
func (s *matStepper) dissipate(step *stepMap, rho *linalg.Matrix) {
	n, x, sum, cols, vals := rho.Rows, rho.Data, s.acc.Data, step.cols, step.vals
	k := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var v complex128
			for a := step.rowStart[k]; a < step.rowStart[k+1]; a++ {
				v += vals[a] * x[cols[a]]
			}
			sum[i*n+j] = v
			k++
		}
	}
	for i := 0; i < n; i++ {
		rho.Data[i*n+i] = complex(real(sum[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			rho.Data[i*n+j] = sum[i*n+j]
			rho.Data[j*n+i] = cmplx.Conj(sum[i*n+j])
		}
	}
}

// A constant stretch of run ticks on the density engine repeats one
// splitting step, S: ρ ↦ M(dt)(U·ρ·U†). S is real-linear on Hermitian
// matrices, so over ρ's n² Hermitian coordinates — the real diagonal, then
// the real and imaginary parts of each entry above it, row by row (toCoords)
// — it is a real n²×n² matrix, and the stretch is S^run. A stretch that
// useStretchMap admits is applied as that one matrix, memoized per shape on
// the Executor: its build costs n² ticks and up to 2·⌊log₂ run⌋ products,
// its apply one mat-vec. Any other stretch steps tick by tick.

// useStretchMap reports whether a constant open stretch of run ticks on an
// n-dimensional model is applied as a stretch map: when n ≤ mapMaxDim, the
// stretch is at least the n² ticks its build steps, and its build's
// products cost at most mapBuildRatio times the ticks they replace. It
// reads only (n, run), so a plan never depends on a memo's state.
func useStretchMap(n int, run int64) bool {
	n3 := int64(n * n * n)
	return n <= mapMaxDim && run >= int64(n*n) && int64(bits.Len64(uint64(run)))*n3 <= mapBuildRatio*run
}

// toCoords writes the Hermitian coordinates of rho's upper triangle into x.
//
//mqss:hotloop
func toCoords(x []float64, rho *linalg.Matrix) {
	n, d := rho.Rows, rho.Data
	k := n
	for i := 0; i < n; i++ {
		x[i] = real(d[i*n+i])
		for _, v := range d[i*n+i+1 : i*n+n] {
			x[k], x[k+1] = real(v), imag(v)
			k += 2
		}
	}
}

// fromCoords writes the Hermitian matrix with coordinates x into rho: a
// real diagonal, each upper entry and its conjugate mirrored below.
//
//mqss:hotloop
func fromCoords(rho *linalg.Matrix, x []float64) {
	n, d := rho.Rows, rho.Data
	k := n
	for i := 0; i < n; i++ {
		d[i*n+i] = complex(x[i], 0)
		for j := i + 1; j < n; j++ {
			d[i*n+j] = complex(x[k], x[k+1])
			d[j*n+i] = complex(x[k], -x[k+1])
			k += 2
		}
	}
}

// applyMap advances rho by the stretch map m: one n²×n² mat-vec over its
// Hermitian coordinates in the stepper's scratch, written back exactly
// Hermitian.
//
//mqss:hotloop
func (s *matStepper) applyMap(m []float64, rho *linalg.Matrix) {
	x, y := s.x, s.y
	toCoords(x, rho)
	for r := range y {
		// Re-sliced to x's length so the loop carries no bounds check.
		row := m[r*len(x) : (r+1)*len(x)][:len(x)]
		var v float64
		for c, a := range row {
			v += a * x[c]
		}
		y[r] = v
	}
	fromCoords(rho, y)
}

// stretchMap returns a new n²×n² matrix holding S^run for the tick
// Hamiltonian h and dissipator step: S column by column, as one tick's
// propagator and dissipator step applied to each Hermitian basis matrix,
// then raised to run by binary powering in the stepper's scratch. Every
// product runs in one fixed order, so the map is a deterministic function
// of (h, dt, step, run); the copy it returns is the build's one allocation
// once the scratch exists. interrupted, when non-nil, is consulted before
// each squaring (at most two products apart); once it reports true the
// build is abandoned and stretchMap returns nil.
func (s *matStepper) stretchMap(h *tickHam, dt float64, step *stepMap, run int64, interrupted func() bool) []float64 {
	nn := len(s.x)
	if s.pow == nil {
		s.pow, s.prod = make([]float64, nn*nn), make([]float64, nn*nn)
		s.powT, s.baseT = make([]float64, nn*nn), make([]float64, nn*nn)
	}
	s.propagator(h, dt)
	e, x, baseT := s.term, s.x, s.baseT
	for c := range nn {
		clear(x)
		x[c] = 1
		fromCoords(e, x)
		s.conjugateWith(s.u, e)
		s.dissipate(step, e)
		// Column c of S is row c of Sᵀ.
		toCoords(baseT[c*nn:(c+1)*nn], e)
	}
	// Left to right over run's bits: square, then multiply by S on a one.
	pow, prod, powT := s.pow, s.prod, s.powT
	transpose(pow, baseT, nn)
	for b := bits.Len64(uint64(run)) - 2; b >= 0; b-- {
		if interrupted != nil && interrupted() {
			return nil
		}
		transpose(powT, pow, nn)
		mulReal(prod, pow, powT, nn)
		pow, prod = prod, pow
		if run>>b&1 == 1 {
			mulReal(prod, pow, baseT, nn)
			pow, prod = prod, pow
		}
	}
	return slices.Clone(pow)
}

// transpose writes the transpose of the n×n row-major matrix a into dst.
func transpose(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		for j, v := range a[i*n : (i+1)*n] {
			dst[j*n+i] = v
		}
	}
}

// mulReal computes dst = a·b for n×n row-major real matrices, given
// bt = bᵀ; dst must alias neither. Each entry is one dot product of a row
// of a and a row of bt summed in ascending order, computed in 2×2 blocks
// so that each load feeds two products.
func mulReal(dst, a, bt []float64, n int) {
	row := func(m []float64, i int) []float64 { return m[i*n : (i+1)*n] }
	i := 0
	for ; i+1 < n; i += 2 {
		a0, a1 := row(a, i), row(a, i+1)[:n]
		j := 0
		for ; j+1 < n; j += 2 {
			b0, b1 := row(bt, j)[:n], row(bt, j+1)[:n]
			var s00, s01, s10, s11 float64
			for k, x0 := range a0 {
				x1, y0, y1 := a1[k], b0[k], b1[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s10 += x1 * y0
				s11 += x1 * y1
			}
			dst[i*n+j], dst[i*n+j+1], dst[(i+1)*n+j], dst[(i+1)*n+j+1] = s00, s01, s10, s11
		}
		if j < n {
			b0 := row(bt, j)[:n]
			var s0, s1 float64
			for k, x0 := range a0 {
				s0 += x0 * b0[k]
				s1 += a1[k] * b0[k]
			}
			dst[i*n+j], dst[(i+1)*n+j] = s0, s1
		}
	}
	if i < n {
		a0 := row(a, i)
		for j := range n {
			b0 := row(bt, j)[:n]
			var v float64
			for k, x := range a0 {
				v += x * b0[k]
			}
			dst[i*n+j] = v
		}
	}
}

// flushSubnormals zeroes every real or imaginary part of m that is
// subnormal (0 < |x| < 0x1p-1022). Over milliseconds of simulated time the
// coherences of highly excited levels decay into that range, where every
// arithmetic step on them costs many times a normal one, while no result
// can tell them from zero. The density engine calls it at its poll
// cadence, never per tick.
func flushSubnormals(m *linalg.Matrix) {
	const minNormal = 0x1p-1022
	for i, v := range m.Data {
		re, im := real(v), imag(v)
		if re != 0 && math.Abs(re) < minNormal {
			re = 0
		}
		if im != 0 && math.Abs(im) < minNormal {
			im = 0
		}
		m.Data[i] = complex(re, im)
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
