package linalg

import (
	"math"
	"math/cmplx"
)

// Sparse is a coordinate-list view of a matrix holding only its non-zero
// entries. The embedded drive and coupler operators of pulse-level
// simulation (σ±, a/a†, ZZ projectors lifted into the full tensor space)
// have O(n) non-zeros in an n×n embedding, so applying them through this
// representation turns the executor's per-sample Hamiltonian work from
// O(n²) dense scans into O(nnz) accumulations.
//
// A Sparse is immutable after construction; all kernels accumulate into
// caller-owned destinations so steady-state integration allocates nothing.
type Sparse struct {
	// RowIdx, ColIdx, Vals are the parallel coordinate lists: entry k is
	// (RowIdx[k], ColIdx[k]) = Vals[k].
	RowIdx, ColIdx []int
	Vals           []complex128

	normBound float64 // cached sqrt(‖·‖₁·‖·‖∞) ≥ spectral norm
}

// NewSparse extracts the non-zero entries of m. Entries that are exactly
// zero are dropped; no thresholding is applied, so the sparse view is an
// exact representation of m.
func NewSparse(m *Matrix) *Sparse {
	s := &Sparse{}
	rowSum := make([]float64, m.Rows)
	colSum := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.Data[i*m.Cols+j]
			if v == 0 {
				continue
			}
			s.RowIdx = append(s.RowIdx, i)
			s.ColIdx = append(s.ColIdx, j)
			s.Vals = append(s.Vals, v)
			a := cmplx.Abs(v)
			rowSum[i] += a
			colSum[j] += a
		}
	}
	var normInf, norm1 float64
	for _, r := range rowSum {
		if r > normInf {
			normInf = r
		}
	}
	for _, c := range colSum {
		if c > norm1 {
			norm1 = c
		}
	}
	s.normBound = math.Sqrt(norm1 * normInf)
	return s
}

// NNZ returns the number of stored non-zero entries.
func (s *Sparse) NNZ() int { return len(s.Vals) }

// NormBound returns a cached upper bound on the spectral norm,
// sqrt(‖S‖₁·‖S‖∞); used to pick the sub-step count of the scaled-Taylor
// propagator.
func (s *Sparse) NormBound() float64 { return s.normBound }

// MulVecAccum accumulates dst += scale·S·v. dst must have as many entries as
// the dense matrix has rows and v as many as it has columns; dst and v must
// not alias.
func (s *Sparse) MulVecAccum(dst, v []complex128, scale complex128) {
	for k, val := range s.Vals {
		dst[s.RowIdx[k]] += scale * val * v[s.ColIdx[k]]
	}
}

// DaggerMulVecAccum accumulates dst += scale·S†·v without materializing
// the adjoint: S† has entry conj(Vals[k]) at (ColIdx[k], RowIdx[k]).
func (s *Sparse) DaggerMulVecAccum(dst, v []complex128, scale complex128) {
	for k, val := range s.Vals {
		dst[s.ColIdx[k]] += scale * cmplx.Conj(val) * v[s.RowIdx[k]]
	}
}

// AddToDense accumulates h += scale·S into a dense matrix of equal shape.
func (s *Sparse) AddToDense(h *Matrix, scale complex128) {
	for k, val := range s.Vals {
		h.Data[s.RowIdx[k]*h.Cols+s.ColIdx[k]] += scale * val
	}
}

// DaggerAddToDense accumulates h += scale·S† into a dense matrix.
func (s *Sparse) DaggerAddToDense(h *Matrix, scale complex128) {
	for k, val := range s.Vals {
		h.Data[s.ColIdx[k]*h.Cols+s.RowIdx[k]] += scale * cmplx.Conj(val)
	}
}

// MulMatAccum accumulates dst += scale·S·src for dense src (row-major).
// Each sparse entry (i,j,v) contributes scale·v·src_row(j) to dst_row(i),
// so the cost is O(nnz·cols). dst and src must not alias.
func (s *Sparse) MulMatAccum(dst, src *Matrix, scale complex128) {
	cols := src.Cols
	for k, val := range s.Vals {
		c := scale * val
		di := dst.Data[s.RowIdx[k]*cols : (s.RowIdx[k]+1)*cols]
		sj := src.Data[s.ColIdx[k]*cols : (s.ColIdx[k]+1)*cols]
		for x := range di {
			di[x] += c * sj[x]
		}
	}
}

// DaggerMulMatAccum accumulates dst += scale·S†·src.
func (s *Sparse) DaggerMulMatAccum(dst, src *Matrix, scale complex128) {
	cols := src.Cols
	for k, val := range s.Vals {
		c := scale * cmplx.Conj(val)
		di := dst.Data[s.ColIdx[k]*cols : (s.ColIdx[k]+1)*cols]
		sj := src.Data[s.RowIdx[k]*cols : (s.RowIdx[k]+1)*cols]
		for x := range di {
			di[x] += c * sj[x]
		}
	}
}
