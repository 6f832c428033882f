package simq

import (
	"math"
	"math/cmplx"

	"mqsspulse/internal/linalg"
)

// This file implements the density engine's site-by-site tick. When the
// drift is a sum of single-site terms and a tick drives only channels that
// act on one site each, H − const = Σ_s H_s with each H_s acting on one
// site, so exp(−iH·dt) is, up to a scalar phase that conjugation cancels,
// the Kronecker product ⊗_s U_s of d×d factors U_s = exp(−iH_s·dt). Each
// factor is built by the dense code at site size (matStepper.propagator:
// the closed form at d = 2, the series above it) and applied to ρ one leg
// at a time — O(n²·Σd_s) work instead of an n-dimensional series and two
// n³ products. A site that no play drives contributes its diagonal phases,
// with no series at all.

// siteTerm is one site of a separable model: where its level sits in the
// basis index and its local drift, spectrally shifted by λ_s, the centre of
// its own range.
type siteTerm struct {
	dim, stride int            // local dimension; basis-index step of one level
	diag        []float64      // d_k − λ_s, k = 0 … dim−1
	drift       *linalg.Sparse // diag as a d×d operator; nil when it is zero
}

// localChannel is a channel whose operator acts on one site: OpRaise equals
// EmbedAt(L, dims, site) entry for entry, and op is L's sparse view.
type localChannel struct {
	site int
	op   *linalg.Sparse
}

// siteTerms splits a model of two or more sites into site-local terms when
// its drift is separable: diagonal and real, with
// D[idx] = D[0] + Σ_s (D[e_s(i_s)] − D[0]) bit for bit (summed in site
// order), where e_s(k) is the basis index with site s at level k and every
// other site at level 0 — so site s's local drift is D[e_s(k)] − D[0]. It
// also returns every channel local to one site. Both are nil when the drift
// is not separable or the model has one site.
func siteTerms(m *SystemModel) ([]siteTerm, map[*ControlChannel]localChannel) {
	dims, n, d := m.Dims, m.HilbertDim(), m.Drift.Data
	if len(dims) < 2 {
		return nil, nil
	}
	sites := make([]siteTerm, len(dims))
	stride := n
	for s, dim := range dims {
		stride /= dim
		sites[s] = siteTerm{dim: dim, stride: stride}
	}
	for r := 0; r < n; r++ {
		for c, v := range d[r*n : (r+1)*n] {
			if (r != c && v != 0) || imag(v) != 0 {
				return nil, nil
			}
		}
	}
	d0 := real(d[0])
	for idx := 0; idx < n; idx++ {
		v := d0
		for _, st := range sites {
			k := idx / st.stride % st.dim
			v += real(d[k*st.stride*(n+1)]) - d0
		}
		if v != real(d[idx*(n+1)]) {
			return nil, nil
		}
	}
	for s := range sites {
		st := &sites[s]
		st.diag = make([]float64, st.dim)
		lo, hi := math.Inf(1), math.Inf(-1)
		for k := range st.diag {
			st.diag[k] = real(d[k*st.stride*(n+1)]) - d0
			lo, hi = math.Min(lo, st.diag[k]), math.Max(hi, st.diag[k])
		}
		local := linalg.NewMatrix(st.dim, st.dim)
		for k := range st.diag {
			st.diag[k] -= (lo + hi) / 2
			local.Set(k, k, complex(st.diag[k], 0))
		}
		if sp := linalg.NewSparse(local); sp.NNZ() > 0 {
			st.drift = sp
		}
	}
	locals := map[*ControlChannel]localChannel{}
	for _, ch := range m.Channels {
		for s, st := range sites {
			if l := localOperator(ch.OpRaise, st); l != nil {
				locals[ch] = localChannel{site: s, op: linalg.NewSparse(l)}
				break
			}
		}
	}
	return sites, locals
}

// localOperator returns the d×d operator L with op = EmbedAt(L, dims, s)
// entry for entry, s the site st describes, or nil when op is not of that
// form. L is op's block with every other site at level 0; op must hold L
// on every block of equal other levels and zero off them.
func localOperator(op *linalg.Matrix, st siteTerm) *linalg.Matrix {
	n, d := op.Rows, st.dim
	l := linalg.NewMatrix(d, d)
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			l.Set(a, b, op.At(a*st.stride, b*st.stride))
		}
	}
	for r := 0; r < n; r++ {
		a := r / st.stride % d
		for c, v := range op.Data[r*n : (r+1)*n] {
			b := c / st.stride % d
			var want complex128
			if r-a*st.stride == c-b*st.stride {
				want = l.Data[a*d+b]
			}
			if v != want {
				return nil
			}
		}
	}
	return l
}

// siteStepper is one site's share of the engine's scratch for a
// site-by-site tick: the site's implicit tick Hamiltonian (its shifted
// local drift plus the local drives of the tick), a site-sized stepper
// over the five d×d matrices mats, whose u receives the site's factor, and
// the factor of a tick that drives nothing on the site,
// diag(e^{−i(d_k−λ_s)·dt}), set with the run's sample period.
type siteStepper struct {
	ham  tickHam
	mat  matStepper
	mats [5]linalg.Matrix
	idle []complex128
}

// newSiteSteppers makes the per-site scratch of a density engine, nil
// when the executor's model is not separable. It is three allocations
// however many sites — the steppers, every number they hold, and room for
// each site's local drives — since a pool that drops an idle engine has
// the next run build one.
func (e *Executor) newSiteSteppers() []siteStepper {
	if e.sites == nil {
		return nil
	}
	size := 0
	for _, st := range e.sites {
		size += 5*st.dim*st.dim + st.dim
	}
	out, data, ops := make([]siteStepper, len(e.sites)), make([]complex128, size), make([]driveCoeff, len(e.locals))
	// next carves the next k entries off data.
	next := func(k int) []complex128 {
		v := data[:k:k]
		data = data[k:]
		return v
	}
	for s, st := range e.sites {
		ss := &out[s]
		for i := range ss.mats {
			ss.mats[i] = linalg.Matrix{Rows: st.dim, Cols: st.dim, Data: next(st.dim * st.dim)}
		}
		ss.mat = matStepper{u: &ss.mats[0], acc: &ss.mats[1], term: &ss.mats[2], tmp: &ss.mats[3], work: &ss.mats[4]}
		ss.idle = next(st.dim)
		k := 0
		for _, lc := range e.locals {
			if lc.site == s {
				k++
			}
		}
		ss.ham = tickHam{drift: st.drift, ops: ops[:0:k]}
		ops = ops[k:]
	}
	return out
}

// conjugateSites advances rho ← U·rho·U† for one tick of the varying
// envelope (active, chis), U = exp(−iH·dt) of the spectrally shifted tick
// Hamiltonian, site by site: a tick the plan found to factor (every play
// with χ ≠ 0 drives a channel local to one site) loads each site's tick
// Hamiltonian, builds its factor and applies it leg by leg. rho leaves
// exactly Hermitian.
//
//mqss:hotloop
func (e *Executor) conjugateSites(eng *fastEngine, active []playEvent, chis []complex128, rho *linalg.Matrix) {
	for s := range eng.sites {
		eng.sites[s].ham.reset()
	}
	for i := range active {
		if chis[i] == 0 {
			continue
		}
		ch := active[i].ch
		lc := e.locals[ch]
		eng.sites[lc.site].ham.add(lc.op, complex(math.Pi*ch.RabiHz, 0)*chis[i])
	}
	for s := range eng.sites {
		ss, stride := &eng.sites[s], e.sites[s].stride
		if len(ss.ham.ops) == 0 {
			eng.mat.conjugatePhases(ss.idle, stride, rho)
			continue
		}
		ss.mat.propagator(&ss.ham, eng.dt)
		eng.mat.conjugateSite(ss.mat.u, stride, rho)
	}
}

// conjugateSite advances rho ← L·rho·L† in place for L = I ⊗ u ⊗ I, the
// d×d factor u of the site whose level steps the basis index by stride.
// rho is Hermitian, so L·rho·L† = L·(L·rho)†: the leg is applied to rho
// into the stepper's work scratch, that is conjugate-transposed into its
// tmp scratch, and the leg is applied again on the upper triangle only,
// which is mirrored — rho leaves exactly Hermitian. It costs 1.5·n²·d
// multiply-adds.
//
//mqss:hotloop
func (s *matStepper) conjugateSite(u *linalg.Matrix, stride int, rho *linalg.Matrix) {
	n, w, v, r := rho.Rows, s.work.Data, s.tmp.Data, rho.Data
	applyLeg(w, r, u, stride, n, false)
	for i := 0; i < n; i++ {
		for j, x := range w[i*n : (i+1)*n] {
			v[j*n+i] = cmplx.Conj(x)
		}
	}
	applyLeg(r, v, u, stride, n, true)
	for i := 0; i < n; i++ {
		r[i*n+i] = complex(real(r[i*n+i]), 0)
		for j := i + 1; j < n; j++ {
			r[j*n+i] = cmplx.Conj(r[i*n+j])
		}
	}
}

// applyLeg writes dst = L·src for n×n row-major src and L = I ⊗ u ⊗ I as in
// conjugateSite: row (hi, a, lo) of dst — the site at level a, the sites
// before and after it at hi and lo — is Σ_b u[a][b]·row (hi, b, lo) of src,
// a sum of contiguous row segments. upper restricts every row i to its
// columns j ≥ i and leaves the rest of dst as it was.
//
//mqss:hotloop
func applyLeg(dst, src []complex128, u *linalg.Matrix, stride, n int, upper bool) {
	d, ud := u.Rows, u.Data
	for hi := 0; hi < n; hi += d * stride {
		for a := 0; a < d; a++ {
			ua := ud[a*d : (a+1)*d]
			for lo := 0; lo < stride; lo++ {
				i, from := hi+a*stride+lo, 0
				if upper {
					from = i
				}
				di := dst[i*n+from : (i+1)*n]
				clear(di)
				for b, c := range ua {
					// Re-sliced to di's length so the loop carries no bounds check.
					si := src[(hi+b*stride+lo)*n+from:][:len(di)]
					for j := range di {
						di[j] += c * si[j]
					}
				}
			}
		}
	}
}

// conjugatePhases advances rho ← P·rho·P† in place for P = I ⊗ diag(p) ⊗ I,
// p the phases of the site whose level steps the basis index by stride:
// entry (i, j) takes ph[i]·conj(ph[j]), ph[i] the phase of basis state i's
// level, spelled out once in the stepper's acc scratch. The upper triangle
// is computed and mirrored; the diagonal, whose factor is |p|² = 1, is left
// as it is.
//
//mqss:hotloop
func (s *matStepper) conjugatePhases(p []complex128, stride int, rho *linalg.Matrix) {
	n, d, r := rho.Rows, len(p), rho.Data
	ph := s.acc.Data[:n]
	for i := range ph {
		ph[i] = p[i/stride%d]
	}
	for i, pi := range ph {
		for j := i + 1; j < n; j++ {
			v := r[i*n+j] * pi * cmplx.Conj(ph[j])
			r[i*n+j], r[j*n+i] = v, cmplx.Conj(v)
		}
	}
}
