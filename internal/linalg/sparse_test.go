package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestSparseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 2+rng.Intn(7), 2+rng.Intn(7), 0.3)
		s := NewSparse(m)
		if !s.Dense(m.Rows, m.Cols).Equal(m, 0) {
			t.Fatalf("trial %d: sparse round trip lost entries", trial)
		}
		nnz := 0
		for _, v := range m.Data {
			if v != 0 {
				nnz++
			}
		}
		if s.NNZ() != nnz {
			t.Fatalf("trial %d: NNZ %d, want %d", trial, s.NNZ(), nnz)
		}
	}
}

func TestSparseVecKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 2+rng.Intn(7), 2+rng.Intn(7)
		m := randomMatrix(rng, rows, cols, 0.4)
		s := NewSparse(m)
		scale := complex(rng.NormFloat64(), rng.NormFloat64())

		v := randomVec(rng, cols)
		dst := randomVec(rng, rows)
		want := append([]complex128(nil), dst...)
		for i, x := range m.MulVec(v) {
			want[i] += scale * x
		}
		s.MulVecAccum(dst, v, scale)
		for i := range dst {
			if d := dst[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("trial %d: MulVecAccum[%d] off by %g", trial, i, d)
			}
		}

		vd := randomVec(rng, rows)
		dstD := randomVec(rng, cols)
		wantD := append([]complex128(nil), dstD...)
		for i, x := range m.Dagger().MulVec(vd) {
			wantD[i] += scale * x
		}
		s.DaggerMulVecAccum(dstD, vd, scale)
		for i := range dstD {
			if d := dstD[i] - wantD[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("trial %d: DaggerMulVecAccum[%d] off by %g", trial, i, d)
			}
		}
	}
}

func TestSparseDenseAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, 5, 5, 0.4)
	s := NewSparse(m)
	scale := complex(0.3, -0.7)

	h := randomMatrix(rng, 5, 5, 1)
	want := h.Add(m.Scale(scale))
	s.AddToDense(h, scale)
	if !h.Equal(want, 1e-12) {
		t.Fatal("AddToDense mismatch")
	}

	h2 := randomMatrix(rng, 5, 5, 1)
	want2 := h2.Add(m.Dagger().Scale(scale))
	s.DaggerAddToDense(h2, scale)
	if !h2.Equal(want2, 1e-12) {
		t.Fatal("DaggerAddToDense mismatch")
	}
}

func TestSparseMatKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		m := randomMatrix(rng, n, n, 0.4)
		s := NewSparse(m)
		src := randomMatrix(rng, n, n, 1)
		scale := complex(rng.NormFloat64(), rng.NormFloat64())

		check := func(name string, got, want *Matrix) {
			t.Helper()
			if !got.Equal(want, 1e-11) {
				t.Fatalf("trial %d: %s mismatch", trial, name)
			}
		}
		dst := NewMatrix(n, n)
		s.MulMatAccum(dst, src, scale)
		check("MulMatAccum", dst, m.Mul(src).Scale(scale))

		dst = NewMatrix(n, n)
		s.DaggerMulMatAccum(dst, src, scale)
		check("DaggerMulMatAccum", dst, m.Dagger().Mul(src).Scale(scale))
	}
}

func TestSparseNormBound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		m := randomMatrix(rng, n, n, 0.5)
		// Hermitize so the spectral norm is the largest |eigenvalue|.
		h := m.Add(m.Dagger()).Scale(0.5)
		s := NewSparse(h)
		vals, _, err := EigenSym(h, 0)
		if err != nil {
			t.Fatal(err)
		}
		spec := math.Max(math.Abs(vals[0]), math.Abs(vals[len(vals)-1]))
		if s.NormBound() < spec-1e-9 {
			t.Fatalf("trial %d: norm bound %g below spectral norm %g", trial, s.NormBound(), spec)
		}
	}
}

func TestMulVecInto(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randomMatrix(rng, 4, 6, 1)
	v := randomVec(rng, 6)
	dst := make([]complex128, 4)
	m.MulVecInto(dst, v)
	want := m.MulVec(v)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// Dense reconstructs the dense rows × cols matrix.
func (s *Sparse) Dense(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	s.AddToDense(m, 1)
	return m
}
