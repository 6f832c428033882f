package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randHermitian(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestEigenSymPauliZ(t *testing.T) {
	vals, vecs, err := EigenSym(PauliZ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(vals[0]+1) <= 1e-10 && math.Abs(vals[1]-1) <= 1e-10) {
		t.Fatalf("eigenvalues of Z = %v, want [-1, 1]", vals)
	}
	if !vecs.IsUnitary(1e-9) {
		t.Fatal("eigenvector matrix not unitary")
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 4, 6, 8} {
		h := randHermitian(rng, n)
		vals, vecs, err := EigenSym(h, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct V diag(vals) V†.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, complex(vals[i], 0))
		}
		rec := vecs.Mul(d).Mul(vecs.Dagger())
		if !rec.Equal(h, 1e-7*(1+h.MaxAbs())) {
			t.Fatalf("n=%d: reconstruction error %g", n, rec.Sub(h).MaxAbs())
		}
		// Ascending eigenvalues.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1]-1e-12 {
				t.Fatalf("n=%d: eigenvalues not ascending: %v", n, vals)
			}
		}
	}
}

func TestEigenSymRejectsNonHermitian(t *testing.T) {
	m := FromRows([][]complex128{{0, 1}, {2, 0}})
	if _, _, err := EigenSym(m, 0); err == nil {
		t.Fatal("expected ErrNotHermitian")
	}
	if _, _, err := EigenSym(NewMatrix(2, 3), 0); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestExpIUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 4} {
		h := randHermitian(rng, n)
		u, err := ExpI(h, 0.37)
		if err != nil {
			t.Fatal(err)
		}
		if !u.IsUnitary(1e-8) {
			t.Fatalf("n=%d: exp(-iHt) not unitary", n)
		}
	}
}

func TestExpIPauliXRotation(t *testing.T) {
	// exp(-i (θ/2) σx) should equal RX(θ).
	theta := 1.234
	u, err := ExpI(PauliX(), theta/2)
	if err != nil {
		t.Fatal(err)
	}
	c, sn := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
	rx := FromRows([][]complex128{{c, sn}, {sn, c}})
	if !u.Equal(rx, 1e-9) {
		t.Fatalf("exp(-iθσx/2) != RX(θ):\n%v\nvs\n%v", u, rx)
	}
}

func TestExpIZeroTime(t *testing.T) {
	u, err := ExpI(PauliY(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(Identity(2), 1e-10) {
		t.Fatal("exp(0) != I")
	}
}

func TestExpIGroupProperty(t *testing.T) {
	// exp(-iH t1) · exp(-iH t2) = exp(-iH (t1+t2))
	rng := rand.New(rand.NewSource(3))
	h := randHermitian(rng, 3)
	u1, _ := ExpI(h, 0.3)
	u2, _ := ExpI(h, 0.9)
	u12, _ := ExpI(h, 1.2)
	if !u1.Mul(u2).Equal(u12, 1e-7) {
		t.Fatal("propagator group property violated")
	}
}

func TestExpMTaylorMatchesExpI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randHermitian(rng, 4)
	t0 := 0.42
	u1, err := ExpI(h, t0)
	if err != nil {
		t.Fatal(err)
	}
	u2 := ExpMTaylor(h.Scale(complex(0, -t0)))
	if !u1.Equal(u2, 1e-7) {
		t.Fatalf("ExpMTaylor disagrees with ExpI by %g", u1.Sub(u2).MaxAbs())
	}
}

func TestExpMTaylorIdentityForZero(t *testing.T) {
	z := NewMatrix(3, 3)
	if !ExpMTaylor(z).Equal(Identity(3), 1e-12) {
		t.Fatal("exp(0) != I")
	}
}

func TestExpMTaylorRejectsNonFinite(t *testing.T) {
	// Inf entries used to hang the norm-halving loop forever (Inf/2 == Inf);
	// NaN made it exit immediately with garbage. Both must panic up front.
	for _, bad := range []complex128{
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
		complex(math.NaN(), 0),
		complex(0, math.NaN()),
	} {
		m := Identity(3)
		m.Set(1, 2, bad)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ExpMTaylor(%v entry) did not panic", bad)
				}
			}()
			// A regression here hangs rather than fails; the package test
			// timeout is the backstop.
			ExpMTaylor(m)
		}()
	}
}

func TestEigenSymRejectsNonFinite(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, complex(math.NaN(), 0))
	m.Set(1, 0, complex(math.NaN(), 0))
	if _, _, err := EigenSym(m, 0); err != ErrNotFinite {
		t.Fatalf("EigenSym on NaN matrix: err = %v, want ErrNotFinite", err)
	}
	if _, err := ExpI(m, 1e-9); err != ErrNotFinite {
		t.Fatalf("ExpI on NaN matrix: err = %v, want ErrNotFinite", err)
	}
}

func TestEigenSymDegenerate(t *testing.T) {
	// Identity has fully degenerate spectrum; decomposition must still work.
	vals, vecs, err := EigenSym(Identity(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if !(math.Abs(v-1) <= 1e-10) {
			t.Fatalf("eigenvalue %v, want 1", v)
		}
	}
	if !vecs.IsUnitary(1e-9) {
		t.Fatal("eigenvectors not unitary")
	}
}

func BenchmarkEigenSym8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randHermitian(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(h, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randHermitian(rng, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mul(m)
	}
}

// ExpMTaylor computes exp(A) for a general square matrix using scaling and
// squaring with a truncated Taylor series: the reference ExpI is checked
// against.
func ExpMTaylor(a *Matrix) *Matrix {
	if !a.IsSquare() {
		panic("linalg: ExpMTaylor of non-square matrix")
	}
	if !a.IsFinite() {
		// An Inf entry makes the norm-halving loop below spin forever
		// (Inf/2 == Inf) and a NaN makes it exit immediately with garbage;
		// reject both up front.
		panic("linalg: ExpMTaylor of non-finite matrix")
	}
	n := a.Rows
	// Scale so that norm/2^s <= 0.5.
	norm := a.FrobeniusNorm()
	s := 0
	for norm > 0.5 {
		norm /= 2
		s++
	}
	scaled := a.Scale(complex(math.Pow(0.5, float64(s)), 0))

	res := Identity(n)
	term := Identity(n)
	const terms = 24
	for k := 1; k <= terms; k++ {
		term = term.Mul(scaled).Scale(complex(1/float64(k), 0))
		res = res.Add(term)
		if term.MaxAbs() < 1e-18 {
			break
		}
	}
	for i := 0; i < s; i++ {
		res = res.Mul(res)
	}
	return res
}

// FrobeniusNorm returns the Frobenius norm.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}
