package linalg

import "math"

// Standard single-qubit operators and common constructors used across the
// simulators, optimal-control, and VQE packages.

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
