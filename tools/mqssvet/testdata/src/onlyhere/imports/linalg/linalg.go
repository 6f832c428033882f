// Package linalg is the one module package optctl may import.
package linalg

// Dot is a dot product.
func Dot(a, b []float64) (s float64) {
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
