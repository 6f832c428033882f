package simq

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/testutil"
)

// The state algebra the package's tests prepare, transform and read states
// with: gate-at-a-site application, expectation values, populations and
// physicality checks. A job never applies a gate matrix — it integrates the
// pulse Hamiltonian — so these live beside the tests that compare against
// them.

// qstate and qdensity are a State and a Density with the site dimensions
// the algebra addresses a site by, which the product types leave to their
// model.
type qstate struct {
	*State
	dims []int
}

type qdensity struct {
	*Density
	dims []int
}

// newState and newDensity are NewState and NewDensity, keeping dims.
func newState(dims []int) *qstate     { return &qstate{NewState(dims), dims} }
func newDensity(dims []int) *qdensity { return &qdensity{NewDensity(dims), dims} }

// evolved is a run's result together with the state the run evolved to:
// FinalState on the state-vector engine, FinalDensity on the density engine,
// the other nil.
type evolved struct {
	*ExecResult
	FinalState   *qstate
	FinalDensity *qdensity
}

// runEvolved is p.Run, keeping the evolved state.
func runEvolved(p *Program, opts ExecOptions) (*evolved, error) {
	res, st, rho, err := p.run(opts)
	if err != nil {
		return nil, err
	}
	out, dims := &evolved{ExecResult: res}, p.exec.Model.Dims
	if st != nil {
		out.FinalState = &qstate{st, dims}
	}
	if rho != nil {
		out.FinalDensity = &qdensity{rho, dims}
	}
	return out, nil
}

// execEvolved is ex.Run, keeping the evolved state.
func execEvolved(ex *Executor, sp *pulse.ScheduledProgram, opts ExecOptions) (*evolved, error) {
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		return nil, err
	}
	return runEvolved(p, opts)
}

// Dim returns the total Hilbert space dimension.
func (s *State) Dim() int { return len(s.Amp) }

// Clone deep-copies the state.
func (s *qstate) Clone() *qstate {
	return &qstate{&State{Amp: append([]complex128(nil), s.Amp...)}, append([]int(nil), s.dims...)}
}

// ApplyFull applies a full-dimension unitary to the state.
func (s *State) ApplyFull(u *linalg.Matrix) {
	if u.Rows != len(s.Amp) {
		panic(fmt.Sprintf("simq: unitary dim %d != state dim %d", u.Rows, len(s.Amp)))
	}
	s.Amp = testutil.MulVec(u, s.Amp)
}

// ApplyAt applies a local operator (dims[site] × dims[site]) to one site
// without building the full tensor product.
func (s *qstate) ApplyAt(op *linalg.Matrix, site int) {
	d := s.dims[site]
	if op.Rows != d || op.Cols != d {
		panic(fmt.Sprintf("simq: op dim %d does not match site dim %d", op.Rows, d))
	}
	st := strides(s.dims)
	stride := st[site]
	block := stride * d
	tmp := make([]complex128, d)
	for base := 0; base < len(s.Amp); base += block {
		for off := 0; off < stride; off++ {
			// Gather the site's amplitudes.
			for k := 0; k < d; k++ {
				tmp[k] = s.Amp[base+off+k*stride]
			}
			for r := 0; r < d; r++ {
				var acc complex128
				row := op.Data[r*d : (r+1)*d]
				for k := 0; k < d; k++ {
					acc += row[k] * tmp[k]
				}
				s.Amp[base+off+r*stride] = acc
			}
		}
	}
}

// ApplyTwo applies a two-site operator to sites (a, b), a != b. The operator
// is indexed with site a as the more significant subsystem.
func (s *qstate) ApplyTwo(op *linalg.Matrix, a, b int) {
	da, db := s.dims[a], s.dims[b]
	if op.Rows != da*db {
		panic(fmt.Sprintf("simq: two-site op dim %d != %d", op.Rows, da*db))
	}
	if a == b {
		panic("simq: ApplyTwo with identical sites")
	}
	st := strides(s.dims)
	sa, sb := st[a], st[b]
	n := len(s.Amp)
	visited := make([]bool, n)
	tmp := make([]complex128, da*db)
	for idx := 0; idx < n; idx++ {
		if visited[idx] {
			continue
		}
		// Only process indices whose a- and b-components are zero.
		ia := (idx / sa) % da
		ib := (idx / sb) % db
		if ia != 0 || ib != 0 {
			continue
		}
		// Gather the da*db amplitudes of this fiber.
		for x := 0; x < da; x++ {
			for y := 0; y < db; y++ {
				j := idx + x*sa + y*sb
				tmp[x*db+y] = s.Amp[j]
				visited[j] = true
			}
		}
		for r := 0; r < da*db; r++ {
			var acc complex128
			row := op.Data[r*da*db : (r+1)*da*db]
			for k := 0; k < da*db; k++ {
				acc += row[k] * tmp[k]
			}
			x, y := r/db, r%db
			s.Amp[idx+x*sa+y*sb] = acc
		}
	}
}

// Expectation returns ⟨ψ|M|ψ⟩ for a full-dimension operator.
func (s *State) Expectation(m *linalg.Matrix) complex128 {
	return linalg.Dot(s.Amp, testutil.MulVec(m, s.Amp))
}

// SampleBits draws `shots` joint measurement outcomes for the listed sites.
// Levels above |1⟩ (leakage) discriminate as 1, matching typical dispersive
// readout behaviour. Each shot is a bitmask: bit i set means sites[i]
// measured 1.
func (s *qstate) SampleBits(rng *rand.Rand, sites []int, shots int) []uint64 {
	return sampleBits(rng, s.Probabilities(), s.dims, sites, shots)
}

func sampleBits(rng *rand.Rand, probs []float64, dims []int, sites []int, shots int) []uint64 {
	if len(sites) > 64 {
		panic("simq: more than 64 measured sites")
	}
	cum := make([]float64, len(probs))
	total := buildCum(cum, probs)
	out := make([]uint64, shots)
	for k := 0; k < shots; k++ {
		out[k] = siteMask(dims, sites, drawIndex(cum, total, rng.Float64()))
	}
	return out
}

// PopulationOfLevel returns the total probability that `site` occupies
// `level`.
func (s *qstate) PopulationOfLevel(site, level int) float64 {
	var p float64
	for i, a := range s.Amp {
		if SiteLevel(s.dims, i, site) == level {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Dim returns the Hilbert-space dimension.
func (d *Density) Dim() int { return d.Rho.Rows }

// Clone deep-copies.
func (d *Density) Clone() *Density {
	return &Density{Rho: d.Rho.Clone()}
}

// ApplyAt applies a local unitary to one site.
func (d *qdensity) ApplyAt(op *linalg.Matrix, site int) {
	full := linalg.EmbedAt(op, d.dims, site)
	d.ApplyFull(full)
}

// Expectation returns tr(ρM).
func (d *Density) Expectation(m *linalg.Matrix) complex128 {
	return d.Rho.Mul(m).Trace()
}

// PopulationOfLevel returns P(site at level).
func (d *qdensity) PopulationOfLevel(site, level int) float64 {
	var p float64
	for i := 0; i < d.Rho.Rows; i++ {
		if SiteLevel(d.dims, i, site) == level {
			p += real(d.Rho.At(i, i))
		}
	}
	return p
}

// Purity returns tr(ρ²) ∈ [1/d, 1].
func (d *Density) Purity() float64 {
	return real(d.Rho.Mul(d.Rho).Trace())
}

// CheckPhysical verifies trace ≈ 1 and diagonal ∈ [-tol, 1+tol]; used by
// property tests to catch integration blow-ups.
func (d *Density) CheckPhysical(tol float64) error {
	if !(math.Abs(d.Trace()-1) <= tol) {
		return fmt.Errorf("simq: trace %g deviates from 1", d.Trace())
	}
	for i, p := range d.Populations() {
		if !(p >= -tol && p <= 1+tol) {
			return fmt.Errorf("simq: population[%d] = %g outside [0,1]", i, p)
		}
	}
	return nil
}

// ApplyFull conjugates ρ → UρU†.
func (d *Density) ApplyFull(u *linalg.Matrix) {
	d.Rho = u.Mul(d.Rho).Mul(u.Dagger())
}

// QubitDriveChannel builds a σ+ drive channel for a 2-level site.
func QubitDriveChannel(portID string, dims []int, site int, rabiHz, carrierHz float64) *ControlChannel {
	return newChannel(portID, linalg.EmbedAt(linalg.FromRows([][]complex128{{0, 0}, {1, 0}}), dims, site), rabiHz, carrierHz)
}

// frameByID returns s's registered frame id, for a test that retunes it.
func frameByID(s *pulse.Schedule, id string) *pulse.Frame {
	for _, f := range s.Frames() {
		if f.ID == id {
			return f
		}
	}
	panic("simq test: no frame " + id)
}

// GlobalPhaseAlign multiplies the state by a global phase so its largest
// amplitude is real positive; useful when comparing states in tests.
func (s *State) GlobalPhaseAlign() {
	var bi int
	var bmag float64
	for i, a := range s.Amp {
		if m := cmplx.Abs(a); m > bmag {
			bmag, bi = m, i
		}
	}
	if bmag == 0 {
		return
	}
	ph := s.Amp[bi] / complex(bmag, 0)
	inv := cmplx.Conj(ph)
	for i := range s.Amp {
		s.Amp[i] *= inv
	}
}

// FromState builds ρ = |ψ⟩⟨ψ|.
func FromState(s *qstate) *qdensity {
	return &qdensity{&Density{Rho: testutil.Outer(s.Amp, s.Amp)}, append([]int(nil), s.dims...)}
}

// SampleBits draws joint measurement outcomes from the diagonal of ρ.
func (d *qdensity) SampleBits(rng *rand.Rand, sites []int, shots int) []uint64 {
	return sampleBits(rng, d.Populations(), d.dims, sites, shots)
}

// StateFidelity returns ⟨ψ|ρ|ψ⟩ for a pure target.
func StateFidelity(rho *qdensity, psi *qstate) float64 {
	v := testutil.MulVec(rho.Rho, psi.Amp)
	return real(linalg.Dot(psi.Amp, v))
}

// Trace returns tr(ρ) (should remain 1).
func (d *Density) Trace() float64 { return real(d.Rho.Trace()) }

// strides returns the stride of each site in the flattened index.
func strides(dims []int) []int {
	st := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= dims[i]
	}
	return st
}
