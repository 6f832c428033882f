package linalg_test

import (
	"math"
	"testing"
	"testing/quick"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/testutil"
)

// The ideal gates, Normalize and Outer live in internal/testutil, which the
// physics tests of other packages share; they are checked here, beside the
// matrix algebra they are built from.

func TestUnitaryGates(t *testing.T) {
	gates := map[string]*linalg.Matrix{
		"H": testutil.Hadamard(), "S": testutil.SGate(), "T": testutil.TGate(),
		"RX": testutil.RX(0.7), "RY": testutil.RY(1.3), "RZ": testutil.RZ(-2.1),
		"CNOT": testutil.CNOT(), "CZ": testutil.CZ(), "ISwap": testutil.ISwap(),
	}
	for name, g := range gates {
		if !g.IsUnitary(1e-9) {
			t.Errorf("%s is not unitary", name)
		}
	}
}

func TestRXComposition(t *testing.T) {
	// testutil.RX(a)·testutil.RX(b) = testutil.RX(a+b)
	f := func(a, b float64) bool {
		a = math.Mod(a, math.Pi)
		b = math.Mod(b, math.Pi)
		return testutil.RX(a).Mul(testutil.RX(b)).Equal(testutil.RX(a+b), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []complex128{0, 0}
	testutil.Normalize(v)
	if v[0] != 0 || v[1] != 0 {
		t.Fatal("Normalize changed the zero vector")
	}
	u := []complex128{complex(3, 0), complex(0, 4)}
	if testutil.Normalize(u); !(math.Abs(linalg.Norm2(u)-1) <= 1e-9) {
		t.Fatal("Normalize did not produce unit vector")
	}
}

func TestOuter(t *testing.T) {
	a := []complex128{1, 0}
	b := []complex128{0, 1}
	m := testutil.Outer(a, b)
	if m.At(0, 1) != 1 || m.At(0, 0) != 0 || m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("|0⟩⟨1| incorrect")
	}
}
