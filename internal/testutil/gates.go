package testutil

import (
	"math"
	"math/cmplx"

	"mqsspulse/internal/linalg"
)

// The ideal gate unitaries the stack's physics tests compare simulated
// evolutions and compiled pulse programs against, and the vector algebra
// they prepare inputs and read outputs with. Product code never builds a gate
// matrix: a gate is a pulse sequence from the gate table.

// Hadamard returns the Hadamard gate.
func Hadamard() *linalg.Matrix {
	s := complex(1/math.Sqrt2, 0)
	return linalg.FromRows([][]complex128{
		{s, s},
		{s, -s},
	})
}

// SGate returns the phase gate S = diag(1, i).
func SGate() *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(0, 1)},
	})
}

// TGate returns the T gate diag(1, e^{iπ/4}).
func TGate() *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Cos(math.Pi/4), math.Sin(math.Pi/4))},
	})
}

// RX returns exp(-i θ σx / 2).
func RX(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return linalg.FromRows([][]complex128{
		{c, s},
		{s, c},
	})
}

// RY returns exp(-i θ σy / 2).
func RY(theta float64) *linalg.Matrix {
	c := math.Cos(theta / 2)
	s := math.Sin(theta / 2)
	return linalg.FromRows([][]complex128{
		{complex(c, 0), complex(-s, 0)},
		{complex(s, 0), complex(c, 0)},
	})
}

// RZ returns exp(-i θ σz / 2).
func RZ(theta float64) *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{complex(math.Cos(theta/2), -math.Sin(theta/2)), 0},
		{0, complex(math.Cos(theta/2), math.Sin(theta/2))},
	})
}

// CNOT returns the controlled-X gate on two qubits (control = qubit 0, the
// most significant bit in big-endian state ordering).
func CNOT() *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
}

// CZ returns the controlled-Z gate on two qubits.
func CZ() *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	})
}

// ISwap returns the iSWAP gate.
func ISwap() *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, complex(0, 1), 0},
		{0, complex(0, 1), 0, 0},
		{0, 0, 0, 1},
	})
}

// Normalize scales v to unit norm in place and returns it. A zero vector is
// returned unchanged.
func Normalize(v []complex128) []complex128 {
	n := linalg.Norm2(v)
	if n == 0 {
		return v
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Outer returns the outer product |a⟩⟨b|.
func Outer(a, b []complex128) *linalg.Matrix {
	m := linalg.NewMatrix(len(a), len(b))
	for i, x := range a {
		for j, y := range b {
			m.Data[i*len(b)+j] = x * cmplx.Conj(y)
		}
	}
	return m
}

// MulVec returns m·v in a fresh vector.
func MulVec(m *linalg.Matrix, v []complex128) []complex128 {
	out := make([]complex128, m.Rows)
	m.MulVecInto(out, v)
	return out
}
