// Package linalg provides the dense complex linear algebra needed by the
// pulse-level quantum simulators: matrix arithmetic, Kronecker products,
// Hermitian eigendecomposition, and unitary propagators exp(-iHt).
//
// Everything is stdlib-only and sized for the small, dense operators that
// arise in pulse-level simulation (dimensions up to a few hundred).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share one length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("linalg: FromRows needs at least one row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows in FromRows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	mustSameShape(m, b)
	c := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	mustSameShape(m, b)
	c := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s*m.
func (m *Matrix) Scale(s complex128) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = s * m.Data[i]
	}
	return c
}

// AddInPlace accumulates s*b into m.
func (m *Matrix) AddInPlace(b *Matrix, s complex128) {
	mustSameShape(m, b)
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(m.Rows, b.Cols)
	// ikj loop order for cache friendliness on row-major data.
	for i := 0; i < m.Rows; i++ {
		ci := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range ci {
				ci[j] += a * bk[j]
			}
		}
	}
	return c
}

// MulVecInto computes dst = m·v without allocating. dst must have length
// Rows and must not alias v; it is overwritten.
func (m *Matrix) MulVecInto(dst, v []complex128) {
	if m.Cols != len(v) || m.Rows != len(dst) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · vec(%d) -> vec(%d)", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var acc complex128
		for j, x := range row {
			acc += x * v[j]
		}
		dst[i] = acc
	}
}

// MulInto computes dst = m·b without allocating. dst must have shape
// (m.Rows, b.Cols) and must not alias m or b; it is overwritten.
func (m *Matrix) MulInto(dst, b *Matrix) {
	if m.Cols != b.Rows || dst.Rows != m.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d -> %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			// Re-sliced to di's length so the loop carries no bounds check.
			bk := b.Data[k*b.Cols : (k+1)*b.Cols][:len(di)]
			for j := range di {
				di[j] += a * bk[j]
			}
		}
	}
}

// MulDaggerHermInto computes dst = m·b† for a product known to be
// Hermitian — such as W·U† with W = U·ρ, which is U·ρ·U† — without
// allocating or materializing the adjoint. Only the entries i ≤ j are
// computed, each a cache-friendly row-row dot Σ_k m[i][k]·conj(b[j][k]);
// every entry below the diagonal is the conjugate of its mirror and the
// diagonal keeps its real part, so dst is exactly Hermitian. dst must be
// square with side m.Rows = b.Rows and must not alias m or b.
func (m *Matrix) MulDaggerHermInto(dst, b *Matrix) {
	n := m.Rows
	if m.Cols != b.Cols || b.Rows != n || dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · (%dx%d)† -> %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < n; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := i; j < n; j++ {
			// Re-sliced to mi's length so the loop carries no bounds check.
			bj := b.Data[j*b.Cols : (j+1)*b.Cols][:len(mi)]
			var acc complex128
			for k, x := range mi {
				acc += x * cmplx.Conj(bj[k])
			}
			if j == i {
				dst.Data[i*n+i] = complex(real(acc), 0)
				continue
			}
			dst.Data[i*n+j] = acc
			dst.Data[j*n+i] = cmplx.Conj(acc)
		}
	}
}

// Dagger returns the conjugate transpose.
func (m *Matrix) Dagger() *Matrix {
	c := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			c.Data[j*c.Cols+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return c
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() complex128 {
	if !m.IsSquare() {
		panic("linalg: trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Kron returns the Kronecker product m ⊗ b.
func (m *Matrix) Kron(b *Matrix) *Matrix {
	c := NewMatrix(m.Rows*b.Rows, m.Cols*b.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.Data[i*m.Cols+j]
			if a == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				dst := c.Data[(i*b.Rows+p)*c.Cols+j*b.Cols : (i*b.Rows+p)*c.Cols+(j+1)*b.Cols]
				src := b.Data[p*b.Cols : (p+1)*b.Cols]
				for q, x := range src {
					dst[q] = a * x
				}
			}
		}
	}
	return c
}

// KronAll folds Kron over a list, left to right.
func KronAll(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("linalg: KronAll needs at least one matrix")
	}
	acc := ms[0]
	for _, m := range ms[1:] {
		acc = acc.Kron(m)
	}
	return acc
}

// MaxAbs returns max |m_ij|, or NaN when an entry is NaN (a part NaN, the
// other not infinite): a NaN difference never reads as a small one. A
// tolerance check fails on it only when written to: !(d <= tol), or an
// IsFinite check first, since NaN > tol is false.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		a := cmplx.Abs(v)
		if math.IsNaN(a) {
			return a
		}
		mx = math.Max(mx, a)
	}
	return mx
}

// IsFinite reports whether every entry is finite (no NaN or ±Inf in either
// component). Matrix exponentials and eigensolvers must reject non-finite
// input up front: their norm-halving and sweep loops silently never
// converge on Inf/NaN.
func (m *Matrix) IsFinite() bool {
	for _, v := range m.Data {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) ||
			math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
			return false
		}
	}
	return true
}

// IsHermitian reports whether m is Hermitian within tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			v := m.At(i, j)
			fmt.Fprintf(&sb, "%.4g%+.4gi", real(v), imag(v))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func mustSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// ErrNotHermitian is returned by eigendecomposition on non-Hermitian input.
var ErrNotHermitian = errors.New("linalg: matrix is not Hermitian")

// ErrNotFinite is returned by eigendecomposition when the input contains
// NaN or Inf entries (typically a corrupted waveform or a diverged
// integration upstream).
var ErrNotFinite = errors.New("linalg: matrix has non-finite entries")
