package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]complex128{
		{1, 2},
		{complex(0, 3), 4},
	})
	if !a.Mul(Identity(2)).Equal(a, tol) {
		t.Fatal("A·I != A")
	}
	if !Identity(2).Mul(a).Equal(a, tol) {
		t.Fatal("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, tol) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	v := []complex128{1, complex(0, 1)}
	got := a.MulVec(v)
	want := []complex128{1 + complex(0, 2), 3 + complex(0, 4)}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("component %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestDaggerInvolution(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		m := FromRows([][]complex128{
			{complex(a, b), complex(c, d)},
			{complex(d, c), complex(b, a)},
		})
		return m.Dagger().Dagger().Equal(m, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPauliAlgebra(t *testing.T) {
	x, y, z := PauliX(), PauliY(), PauliZ()
	// σx² = σy² = σz² = I
	for name, p := range map[string]*Matrix{"X": x, "Y": y, "Z": z} {
		if !p.Mul(p).Equal(Identity(2), tol) {
			t.Errorf("σ%s² != I", name)
		}
	}
	// [X, Y] = 2iZ
	want := z.Scale(complex(0, 2))
	if !Commutator(x, y).Equal(want, tol) {
		t.Error("[X,Y] != 2iZ")
	}
	// {X, Y} = 0
	if AntiCommutator(x, y).MaxAbs() > tol {
		t.Error("{X,Y} != 0")
	}
}

func TestUnitaryGates(t *testing.T) {
	gates := map[string]*Matrix{
		"H": Hadamard(), "S": SGate(), "T": TGate(),
		"RX": RX(0.7), "RY": RY(1.3), "RZ": RZ(-2.1),
		"CNOT": CNOT(), "CZ": CZ(), "ISwap": ISwap(),
	}
	for name, g := range gates {
		if !g.IsUnitary(tol) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestRXComposition(t *testing.T) {
	// RX(a)·RX(b) = RX(a+b)
	f := func(a, b float64) bool {
		a = math.Mod(a, math.Pi)
		b = math.Mod(b, math.Pi)
		return RX(a).Mul(RX(b)).Equal(RX(a+b), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKronDims(t *testing.T) {
	a := Identity(2)
	b := Identity(3)
	k := a.Kron(b)
	if k.Rows != 6 || k.Cols != 6 {
		t.Fatalf("kron shape = %dx%d, want 6x6", k.Rows, k.Cols)
	}
	if !k.Equal(Identity(6), tol) {
		t.Fatal("I2 ⊗ I3 != I6")
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	rng := rand.New(rand.NewSource(42))
	randM := func(n int) *Matrix {
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return m
	}
	a, b, c, d := randM(2), randM(3), randM(2), randM(3)
	lhs := a.Kron(b).Mul(c.Kron(d))
	rhs := a.Mul(c).Kron(b.Mul(d))
	if !lhs.Equal(rhs, 1e-8) {
		t.Fatal("Kronecker mixed-product property violated")
	}
}

func TestTraceLinear(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	if got := a.Add(b).Trace(); cmplx.Abs(got-(a.Trace()+b.Trace())) > tol {
		t.Fatal("trace not linear")
	}
	// tr(AB) = tr(BA)
	if cmplx.Abs(a.Mul(b).Trace()-b.Mul(a).Trace()) > tol {
		t.Fatal("cyclic trace property violated")
	}
}

func TestAnnihilationCreation(t *testing.T) {
	d := 5
	a := Annihilation(d)
	ad := Creation(d)
	// [a, a†] = I (up to truncation at the top level)
	comm := Commutator(a, ad)
	for i := 0; i < d-1; i++ {
		if cmplx.Abs(comm.At(i, i)-1) > tol {
			t.Errorf("[a,a†][%d][%d] = %v, want 1", i, i, comm.At(i, i))
		}
	}
	// a†a = N
	if !ad.Mul(a).Equal(NumberOp(d), tol) {
		t.Fatal("a†a != N")
	}
}

func TestEmbedAt(t *testing.T) {
	dims := []int{2, 2, 2}
	x1 := EmbedAt(PauliX(), dims, 1)
	want := KronAll(Identity(2), PauliX(), Identity(2))
	if !x1.Equal(want, tol) {
		t.Fatal("EmbedAt(X, 1) incorrect")
	}
	if x1.Rows != 8 {
		t.Fatalf("dim = %d, want 8", x1.Rows)
	}
}

func TestEmbedTwo(t *testing.T) {
	dims := []int{2, 2, 2}
	cz01 := EmbedTwo(CZ(), dims, 0)
	want := CZ().Kron(Identity(2))
	if !cz01.Equal(want, tol) {
		t.Fatal("EmbedTwo(CZ, 0) incorrect")
	}
}

func TestDotNorm(t *testing.T) {
	v := []complex128{complex(3, 0), complex(0, 4)}
	if got := Norm2(v); math.Abs(got-5) > tol {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Dot(v, v); cmplx.Abs(got-25) > tol {
		t.Fatalf("⟨v|v⟩ = %v, want 25", got)
	}
	Normalize(v)
	if math.Abs(Norm2(v)-1) > tol {
		t.Fatal("Normalize did not produce unit vector")
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []complex128{0, 0}
	Normalize(v)
	if v[0] != 0 || v[1] != 0 {
		t.Fatal("Normalize changed the zero vector")
	}
}

func TestOuter(t *testing.T) {
	a := []complex128{1, 0}
	b := []complex128{0, 1}
	m := Outer(a, b)
	if m.At(0, 1) != 1 || m.At(0, 0) != 0 || m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("|0⟩⟨1| incorrect")
	}
}

// TestMulIntoMatchesMul: the allocation-free product overwrites whatever
// dst held with exactly what the allocating Mul returns, on square,
// rectangular and partly zero operands.
func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 2, 7}, {9, 9, 9}} {
		for _, density := range []float64{1, 0.5} {
			a, b := randomMatrix(rng, sh[0], sh[1], density), randomMatrix(rng, sh[1], sh[2], density)
			dst := randomMatrix(rng, sh[0], sh[2], 1)
			a.MulInto(dst, b)
			if want := a.Mul(b); !dst.Equal(want, 0) {
				t.Fatalf("%v at density %g: MulInto off by %g", sh, density, dst.Sub(want).MaxAbs())
			}
		}
	}
}

// TestMulDaggerHermIntoMatchesReference: for W = U·ρ with ρ Hermitian and
// U arbitrary, the kernel returns W·U† as the allocating Mul/Dagger
// reference computes it, and exactly Hermitian: every entry below the
// diagonal is, bit for bit, the conjugate of its mirror and the diagonal
// is real. Whatever dst held before is overwritten.
func TestMulDaggerHermIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 2, 3, 9} {
		for _, density := range []float64{1, 0.5} {
			a := randomMatrix(rng, n, n, 1)
			rho := a.Mul(a.Dagger())
			u := randomMatrix(rng, n, n, density)
			w := u.Mul(rho)
			dst := randomMatrix(rng, n, n, 1)
			w.MulDaggerHermInto(dst, u)
			want := w.Mul(u.Dagger())
			if !dst.Equal(want, 1e-12*(1+want.MaxAbs())) {
				t.Fatalf("n=%d density %g: off by %g", n, density, dst.Sub(want).MaxAbs())
			}
			for i := 0; i < n; i++ {
				if imag(dst.At(i, i)) != 0 {
					t.Fatalf("n=%d: diagonal entry %d = %v is not real", n, i, dst.At(i, i))
				}
				for j := i + 1; j < n; j++ {
					up, low := dst.At(i, j), cmplx.Conj(dst.At(j, i))
					if !same(real(up), real(low)) || !same(imag(up), imag(low)) {
						t.Fatalf("n=%d: entry (%d,%d) = %v is not the conjugate of (%d,%d) = %v", n, j, i, dst.At(j, i), i, j, up)
					}
				}
			}
		}
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("shape mismatch add", func() { Identity(2).Add(Identity(3)) })
	mustPanic("dim mismatch mul", func() { Identity(2).Mul(Identity(3)) })
	mustPanic("dim mismatch mul into", func() { Identity(2).MulInto(Identity(3), Identity(2)) })
	mustPanic("non-square hermitian product", func() { NewMatrix(2, 3).MulDaggerHermInto(Identity(2), NewMatrix(3, 3)) })
	mustPanic("trace non-square", func() { NewMatrix(2, 3).Trace() })
	mustPanic("bad shape", func() { NewMatrix(0, 3) })
	mustPanic("ragged rows", func() { FromRows([][]complex128{{1, 2}, {1}}) })
}
