package readout

import (
	"fmt"
	"math"
)

// Confusion is one qubit's 2×2 assignment matrix in reduced form: P01 is
// the probability a prepared 0 reads as 1, P10 the probability a prepared
// 1 reads as 0. Columns of the full matrix
//
//	A = | 1−P01   P10  |
//	    |  P01   1−P10 |
//
// map true-state probabilities to observed probabilities.
type Confusion struct {
	P01 float64 `json:"p01"`
	P10 float64 `json:"p10"`
}

// Validate checks the matrix is a proper, invertible assignment channel.
func (c Confusion) Validate() error {
	if c.P01 < 0 || c.P01 > 1 || c.P10 < 0 || c.P10 > 1 ||
		math.IsNaN(c.P01) || math.IsNaN(c.P10) {
		return fmt.Errorf("readout: confusion probabilities outside [0,1]: %+v", c)
	}
	if 1-c.P01-c.P10 <= 1e-9 {
		return fmt.Errorf("readout: confusion matrix singular (p01=%g p10=%g)", c.P01, c.P10)
	}
	return nil
}

// maxMitigatedBits bounds the dense probability vector (2^k entries).
const maxMitigatedBits = 20

// Mitigator undoes per-qubit assignment errors in measured counts. The
// full N-qubit assignment matrix is the tensor product of the per-qubit
// confusion matrices, so its inverse factorizes and applies axis-by-axis
// in O(k·2^k): the exact (unconstrained least-squares) solution of the
// linear system. Negative entries from shot noise are then clipped and
// the vector renormalized — the standard lightweight projection onto the
// probability simplex, not the full constrained least-squares solve.
type Mitigator struct {
	bits []int
	mats []Confusion
}

// NewMitigator builds a mitigator. bits[i] is the classical-bit position
// (in the counts bitmask) that confusion matrix mats[i] corrects.
func NewMitigator(bits []int, mats []Confusion) (*Mitigator, error) {
	if len(bits) == 0 || len(bits) != len(mats) {
		return nil, fmt.Errorf("readout: mitigator needs matching bits (%d) and matrices (%d)", len(bits), len(mats))
	}
	if len(bits) > maxMitigatedBits {
		return nil, fmt.Errorf("readout: mitigation over %d bits exceeds the %d-bit bound", len(bits), maxMitigatedBits)
	}
	seen := map[int]bool{}
	for _, b := range bits {
		if b < 0 || b >= 64 {
			return nil, fmt.Errorf("readout: bit %d out of range", b)
		}
		if seen[b] {
			return nil, fmt.Errorf("readout: bit %d mitigated twice", b)
		}
		seen[b] = true
	}
	for i, m := range mats {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("readout: bit %d: %w", bits[i], err)
		}
	}
	return &Mitigator{
		bits: append([]int(nil), bits...),
		mats: append([]Confusion(nil), mats...),
	}, nil
}

// Apply mitigates a counts histogram, returning the estimated true-state
// probability distribution keyed by the same bitmask convention. Counts on
// bits outside the mitigated set are rejected.
func (m *Mitigator) Apply(counts map[uint64]int, shots int) (map[uint64]float64, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("readout: mitigate with non-positive shots %d", shots)
	}
	k := len(m.bits)
	var known uint64
	for _, b := range m.bits {
		known |= 1 << uint(b)
	}
	// Dense observed distribution over the 2^k mitigated subspace, indexed
	// by the compact index whose bit i mirrors counts-bit m.bits[i].
	p := make([]float64, 1<<uint(k))
	for mask, n := range counts {
		if mask&^known != 0 {
			return nil, fmt.Errorf("readout: counts use unmitigated bit (mask %b, mitigated %b)", mask, known)
		}
		idx := 0
		for i, b := range m.bits {
			if (mask>>uint(b))&1 == 1 {
				idx |= 1 << uint(i)
			}
		}
		p[idx] += float64(n) / float64(shots)
	}
	// Exact tensor-product inversion, one axis at a time.
	for i, c := range m.mats {
		det := 1 - c.P01 - c.P10
		step := 1 << uint(i)
		for base := 0; base < len(p); base++ {
			if base&step != 0 {
				continue
			}
			v0, v1 := p[base], p[base|step]
			// A⁻¹ = 1/det · | 1−P10  −P10  |
			//               | −P01   1−P01 |
			p[base] = ((1-c.P10)*v0 - c.P10*v1) / det
			p[base|step] = (-c.P01*v0 + (1-c.P01)*v1) / det
		}
	}
	// Project onto the probability simplex.
	var total float64
	for i, v := range p {
		if v < 0 {
			p[i] = 0
		} else {
			total += v
		}
	}
	out := make(map[uint64]float64)
	for idx, v := range p {
		if v == 0 {
			continue
		}
		if total > 0 {
			v /= total
		}
		var mask uint64
		for i, b := range m.bits {
			if idx&(1<<uint(i)) != 0 {
				mask |= 1 << uint(b)
			}
		}
		out[mask] = v
	}
	return out, nil
}
