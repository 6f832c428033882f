// Package vqe implements variational quantum eigensolvers at both gate and
// pulse level — the paper's third pulse-level use case (Section 2.1,
// ctrl-VQE). Both variants are templates run as client jobs, lowered once
// per basis and bound per evaluation: the gate ansatz's RY slots lower
// through calibrated gates, the pulse ansatz (the paper's Listing 1 kernel)
// drives parameterized waveforms directly, so the schedule-duration and
// energy-error comparison is apples to apples.
package vqe

import (
	"fmt"
	"sort"
	"strings"

	"mqsspulse/internal/linalg"
)

// Term is one Pauli string with a real coefficient. Ops[q] ∈ {'I','X','Y','Z'}.
type Term struct {
	Coeff float64
	Ops   string
}

// Hamiltonian is a sum of Pauli terms over a fixed qubit count.
type Hamiltonian struct {
	Qubits int
	Terms  []Term
}

// Validate checks the operator strings.
func (h *Hamiltonian) Validate() error {
	if h.Qubits <= 0 {
		return fmt.Errorf("vqe: hamiltonian with %d qubits", h.Qubits)
	}
	for i, t := range h.Terms {
		if len(t.Ops) != h.Qubits {
			return fmt.Errorf("vqe: term %d has %d ops for %d qubits", i, len(t.Ops), h.Qubits)
		}
		for _, c := range t.Ops {
			switch c {
			case 'I', 'X', 'Y', 'Z':
			default:
				return fmt.Errorf("vqe: term %d has invalid op %q", i, string(c))
			}
		}
	}
	return nil
}

// pauliMatrix returns the single-qubit matrix of an op letter.
func pauliMatrix(c byte) *linalg.Matrix {
	switch c {
	case 'X':
		return linalg.PauliX()
	case 'Y':
		return linalg.PauliY()
	case 'Z':
		return linalg.PauliZ()
	default:
		return linalg.Identity(2)
	}
}

// Matrix assembles the full 2^n × 2^n Hamiltonian matrix.
func (h *Hamiltonian) Matrix() *linalg.Matrix {
	n := 1 << h.Qubits
	out := linalg.NewMatrix(n, n)
	for _, t := range h.Terms {
		factors := make([]*linalg.Matrix, h.Qubits)
		for q := 0; q < h.Qubits; q++ {
			factors[q] = pauliMatrix(t.Ops[q])
		}
		out.AddInPlace(linalg.KronAll(factors...), complex(t.Coeff, 0))
	}
	return out
}

// GroundEnergy returns the exact lowest eigenvalue (for small n).
func (h *Hamiltonian) GroundEnergy() (float64, error) {
	vals, _, err := linalg.EigenSym(h.Matrix(), 0)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// MeasurementGroup is a set of qubit-wise commuting terms measurable from
// one circuit execution: Basis[q] gives the measurement basis per qubit
// ('Z' default, 'X' or 'Y' require pre-rotation).
type MeasurementGroup struct {
	Basis string
	Terms []Term
}

// GroupTerms partitions the Hamiltonian's non-identity terms into
// qubit-wise commuting groups (greedy first-fit) and returns the groups
// plus the identity offset. Within a group, every qubit position is either
// unconstrained (no term touches it) or agreed on one Pauli basis;
// unconstrained positions measure in Z.
func (h *Hamiltonian) GroupTerms() (groups []MeasurementGroup, identity float64) {
	// 0 in a working basis means "no term constrains this qubit yet".
	var bases [][]byte
	for _, t := range h.Terms {
		if strings.Count(t.Ops, "I") == h.Qubits {
			identity += t.Coeff
			continue
		}
		placed := false
		for gi := range bases {
			if tryMerge(bases[gi], t.Ops) {
				groups[gi].Terms = append(groups[gi].Terms, t)
				placed = true
				break
			}
		}
		if !placed {
			b := make([]byte, h.Qubits)
			for q := 0; q < h.Qubits; q++ {
				if t.Ops[q] != 'I' {
					b[q] = t.Ops[q]
				}
			}
			bases = append(bases, b)
			groups = append(groups, MeasurementGroup{Terms: []Term{t}})
		}
	}
	for gi := range groups {
		b := bases[gi]
		for q := range b {
			if b[q] == 0 {
				b[q] = 'Z'
			}
		}
		groups[gi].Basis = string(b)
	}
	// Deterministic order for reproducible job streams.
	sort.Slice(groups, func(i, j int) bool { return groups[i].Basis < groups[j].Basis })
	return groups, identity
}

// tryMerge folds a term's ops into a working basis (0 = unconstrained),
// mutating it on success.
func tryMerge(basis []byte, ops string) bool {
	for q := 0; q < len(ops); q++ {
		o := ops[q]
		if o == 'I' || basis[q] == 0 || basis[q] == o {
			continue
		}
		return false
	}
	for q := 0; q < len(ops); q++ {
		if ops[q] != 'I' {
			basis[q] = ops[q]
		}
	}
	return true
}

// TermValue computes a term's ±1 eigenvalue product from a measured
// bitmask (bit q set = qubit q read 1).
func TermValue(t Term, bits uint64) float64 {
	v := 1.0
	for q := 0; q < len(t.Ops); q++ {
		if t.Ops[q] == 'I' {
			continue
		}
		if (bits>>uint(q))&1 == 1 {
			v = -v
		}
	}
	return v
}

// GroupEnergy folds measured counts into the group's energy contribution.
func GroupEnergy(g MeasurementGroup, counts map[uint64]int, shots int) float64 {
	if shots == 0 {
		return 0
	}
	var e float64
	for _, t := range g.Terms {
		var acc float64
		for bits, n := range counts {
			acc += TermValue(t, bits) * float64(n)
		}
		e += t.Coeff * acc / float64(shots)
	}
	return e
}

// H2Minimal returns the standard 2-qubit minimal-basis H₂ Hamiltonian at
// 0.735 Å (parity-mapped, tapered), the workhorse benchmark of the VQE
// literature. Its exact ground energy is ≈ -1.8573 Ha; the Hartree-Fock
// reference state is |10⟩ at ≈ -1.8370 Ha.
func H2Minimal() *Hamiltonian {
	return &Hamiltonian{
		Qubits: 2,
		Terms: []Term{
			{Coeff: -1.052373245772859, Ops: "II"},
			{Coeff: 0.39793742484318045, Ops: "ZI"},
			{Coeff: -0.39793742484318045, Ops: "IZ"},
			{Coeff: -0.01128010425623538, Ops: "ZZ"},
			{Coeff: 0.18093119978423156, Ops: "XX"},
		},
	}
}
