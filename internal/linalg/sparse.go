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

// HermMulMatUpperAccum accumulates dst += (w·S + conj(w)·S†)·src on the
// upper triangle of dst only: entry (i, j) for j ≥ i. Each sparse entry
// (i, k, v) adds w·v·src[k][j] to row i for j ≥ i and conj(w·v)·src[i][j]
// to row k for j ≥ k, so the cost is about nnz·cols, half that of the two
// full products; a diagonal entry adds its two halves, 2·Re(w·v), in one
// pass. src and dst are square of one side and must not alias; dst's
// entries below the diagonal are not touched.
//
//mqss:hotloop
func (s *Sparse) HermMulMatUpperAccum(dst, src *Matrix, w complex128) {
	n := src.Cols
	for e, val := range s.Vals {
		i, k := s.RowIdx[e], s.ColIdx[e]
		c := w * val
		di := dst.Data[i*n+i : (i+1)*n]
		// Re-sliced to the destination row's length so the loops carry no
		// bounds check.
		sk := src.Data[k*n+i : (k+1)*n][:len(di)]
		if i == k {
			r := 2 * real(c)
			for x, v := range sk {
				di[x] += complex(r*real(v), r*imag(v))
			}
			continue
		}
		for x := range di {
			di[x] += c * sk[x]
		}
		c = cmplx.Conj(c)
		dk := dst.Data[k*n+k : (k+1)*n]
		si := src.Data[i*n+k : (i+1)*n][:len(dk)]
		for x := range dk {
			dk[x] += c * si[x]
		}
	}
}
