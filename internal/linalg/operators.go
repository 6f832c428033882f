package linalg

import "math"

// Standard single-qubit operators and common constructors used across the
// simulators, optimal-control, and VQE packages.

// PauliI returns the 2x2 identity.
func PauliI() *Matrix { return Identity(2) }

// PauliX returns σx.
func PauliX() *Matrix {
	return FromRows([][]complex128{
		{0, 1},
		{1, 0},
	})
}

// PauliY returns σy.
func PauliY() *Matrix {
	return FromRows([][]complex128{
		{0, complex(0, -1)},
		{complex(0, 1), 0},
	})
}

// PauliZ returns σz.
func PauliZ() *Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, -1},
	})
}

// SigmaPlus returns |1⟩⟨0| (raising operator in computational ordering).
func SigmaPlus() *Matrix {
	return FromRows([][]complex128{
		{0, 0},
		{1, 0},
	})
}

// Hadamard returns the Hadamard gate.
func Hadamard() *Matrix {
	s := complex(1/math.Sqrt2, 0)
	return FromRows([][]complex128{
		{s, s},
		{s, -s},
	})
}

// SGate returns the phase gate S = diag(1, i).
func SGate() *Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, complex(0, 1)},
	})
}

// TGate returns the T gate diag(1, e^{iπ/4}).
func TGate() *Matrix {
	return FromRows([][]complex128{
		{1, 0},
		{0, complex(math.Cos(math.Pi/4), math.Sin(math.Pi/4))},
	})
}

// RX returns exp(-i θ σx / 2).
func RX(theta float64) *Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return FromRows([][]complex128{
		{c, s},
		{s, c},
	})
}

// RY returns exp(-i θ σy / 2).
func RY(theta float64) *Matrix {
	c := math.Cos(theta / 2)
	s := math.Sin(theta / 2)
	return FromRows([][]complex128{
		{complex(c, 0), complex(-s, 0)},
		{complex(s, 0), complex(c, 0)},
	})
}

// RZ returns exp(-i θ σz / 2).
func RZ(theta float64) *Matrix {
	return FromRows([][]complex128{
		{complex(math.Cos(theta/2), -math.Sin(theta/2)), 0},
		{0, complex(math.Cos(theta/2), math.Sin(theta/2))},
	})
}

// CNOT returns the controlled-X gate on two qubits (control = qubit 0, the
// most significant bit in big-endian state ordering).
func CNOT() *Matrix {
	return FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
}

// CZ returns the controlled-Z gate on two qubits.
func CZ() *Matrix {
	return FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	})
}

// ISwap returns the iSWAP gate.
func ISwap() *Matrix {
	return FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, complex(0, 1), 0},
		{0, complex(0, 1), 0, 0},
		{0, 0, 0, 1},
	})
}

// Annihilation returns the truncated annihilation operator a for a d-level
// oscillator: a|n⟩ = √n |n-1⟩.
func Annihilation(d int) *Matrix {
	m := NewMatrix(d, d)
	for n := 1; n < d; n++ {
		m.Set(n-1, n, complex(math.Sqrt(float64(n)), 0))
	}
	return m
}

// Creation returns the truncated creation operator a†.
func Creation(d int) *Matrix { return Annihilation(d).Dagger() }

// NumberOp returns the number operator a†a = diag(0, 1, ..., d-1).
func NumberOp(d int) *Matrix {
	m := NewMatrix(d, d)
	for n := 0; n < d; n++ {
		m.Set(n, n, complex(float64(n), 0))
	}
	return m
}

// EmbedOperator lifts op acting on qubit targets (each of local dimension
// dims[i]) into the full tensor-product space described by dims, acting as
// identity elsewhere. targets must be sorted ascending and contiguous in the
// tensor ordering for this simple implementation; for general placement use
// EmbedAt with explicit identity factors.
func EmbedAt(op *Matrix, dims []int, target int) *Matrix {
	if target < 0 || target >= len(dims) {
		panic("linalg: EmbedAt target out of range")
	}
	if op.Rows != dims[target] {
		panic("linalg: EmbedAt operator dimension does not match site dimension")
	}
	factors := make([]*Matrix, len(dims))
	for i, d := range dims {
		if i == target {
			factors[i] = op
		} else {
			factors[i] = Identity(d)
		}
	}
	return KronAll(factors...)
}

// EmbedTwo lifts a two-site operator acting on (t1, t2) with t2 == t1+1
// (adjacent sites) into the full space.
func EmbedTwo(op *Matrix, dims []int, t1 int) *Matrix {
	if t1 < 0 || t1+1 >= len(dims) {
		panic("linalg: EmbedTwo target out of range")
	}
	if op.Rows != dims[t1]*dims[t1+1] {
		panic("linalg: EmbedTwo operator dimension mismatch")
	}
	factors := []*Matrix{}
	for i := 0; i < t1; i++ {
		factors = append(factors, Identity(dims[i]))
	}
	factors = append(factors, op)
	for i := t1 + 2; i < len(dims); i++ {
		factors = append(factors, Identity(dims[i]))
	}
	return KronAll(factors...)
}
