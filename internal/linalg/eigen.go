package linalg

import (
	"math"
	"math/cmplx"
)

// EigenSym computes the eigendecomposition of a Hermitian matrix using the
// cyclic complex Jacobi method. It returns the eigenvalues (ascending) and a
// unitary matrix V whose columns are the corresponding eigenvectors, so that
// m = V · diag(vals) · V†.
func EigenSym(m *Matrix, tol float64) (vals []float64, vecs *Matrix, err error) {
	if !m.IsSquare() {
		return nil, nil, ErrNotHermitian
	}
	if !m.IsFinite() {
		// NaN comparisons make IsHermitian vacuously pass, so an explicit
		// check is needed to keep Jacobi from returning garbage.
		return nil, nil, ErrNotFinite
	}
	if !m.IsHermitian(1e-9 + 1e-9*m.MaxAbs()) {
		return nil, nil, ErrNotHermitian
	}
	n := m.Rows
	a := m.Clone()
	v := Identity(n)
	if tol <= 0 {
		tol = 1e-12
	}

	// Cyclic Jacobi sweeps over the upper triangle.
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off <= tol*(1+a.MaxAbs()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if cmplx.Abs(apq) < 1e-300 {
					continue
				}
				app := real(a.At(p, p))
				aqq := real(a.At(q, q))

				// Complex Jacobi rotation: zero out a[p][q].
				// Write a[p][q] = |apq| e^{iφ}; absorb the phase, then do a
				// real rotation on the transformed 2x2 block.
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0) // e^{iφ}

				theta := (aqq - app) / (2 * absApq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Rotation acts as:
				//   new_p = c*col_p - s*conj(phase)*col_q ... (with phase folded)
				cs := complex(c, 0)
				sn := complex(s, 0) * phase // s e^{iφ}

				// Update A = J† A J where J is identity except
				// J[p][p]=c, J[p][q]=s·e^{iφ}, J[q][p]=-s·e^{-iφ}, J[q][q]=c.
				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, cs*akp-cmplx.Conj(sn)*akq)
					a.Set(k, q, sn*akp+cs*akq)
				}
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, cs*apk-sn*aqk)
					a.Set(q, k, cmplx.Conj(sn)*apk+cs*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, cs*vkp-cmplx.Conj(sn)*vkq)
					v.Set(k, q, sn*vkp+cs*vkq)
				}
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = real(a.At(i, i))
	}

	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

func offDiagNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i == j {
				continue
			}
			v := a.At(i, j)
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(s)
}

// ExpI computes the unitary propagator exp(-i·H·t) for Hermitian H via
// eigendecomposition. Accuracy is limited only by the eigensolver tolerance.
func ExpI(h *Matrix, t float64) (*Matrix, error) {
	vals, vecs, err := EigenSym(h, 0)
	if err != nil {
		return nil, err
	}
	n := h.Rows
	// U = V · diag(exp(-i λ t)) · V†
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Data[i*n+i] = cmplx.Exp(complex(0, -vals[i]*t))
	}
	return vecs.Mul(d).Mul(vecs.Dagger()), nil
}

// Dot returns ⟨a|b⟩ = Σ conj(a_i)·b_i.
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a complex vector.
func Norm2(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}
