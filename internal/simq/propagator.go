package simq

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"sync"

	"mqsspulse/internal/linalg"
)

// This file implements the propagators the plan's steps apply (plan.go),
// none of which runs an eigendecomposition or allocates in steady state. ψ
// takes the scaled-Taylor series of exp(-i·H·dt) term by term under the
// sparse tick Hamiltonian. A dense U — a density tick's, an idle segment's
// or a constant stretch's (memoized once per distinct stretch) — is the sum
// of the signed Hermitian powers (-i)^k·(t·H)^k/k!, each built on its upper
// triangle and mirrored (matStepper.taylor); at Hilbert dimension 2 it is
// the closed form (matStepper.twoLevel), built in the engine's scratch where
// it is used, never memoized, and conjugated by in closed form
// (conjugate2). A site tick builds per-site d×d factors the same way
// (sites.go). The exact reference, linalg.ExpI per tick and per idle
// segment, lives in the tests (runExact).
//
// Accuracy: a tick is sub-stepped so that ‖H‖·dt_sub ≤ taylorThetaMax and
// its series truncated once the next term falls below taylorTol, ≲ 1e-13
// per sub-step — far below the 1e-9 state-fidelity bound the property tests
// pin against the reference. A stretch halves its duration s times to reach
// θ ≤ 1 and squares the result s times, which can grow the residual by up to
// 2^s; the long-stretch property tests pin that too. The closed form has no
// truncation and no squaring: it stays unitary to rounding at any length. A
// site tick carries each factor's error, summed over the sites.

const (
	// taylorThetaMax caps ‖H‖·dt per Taylor sub-step; above it the tick is
	// split into ceil(θ/taylorThetaMax) sub-steps. At θ = 1 the series
	// needs ~16 terms to reach taylorTol — fewer matrix applications per
	// unit of accumulated phase than smaller sub-steps would use.
	taylorThetaMax = 1.0
	// taylorTol stops the series once the sup-norm of the next term drops
	// below it (states are unit norm, density entries ≤ 1). The residual
	// per sub-step is ≲ 2·taylorTol, so even million-tick runs stay ~1e-7
	// in accumulated amplitude error — fidelity loss ≪ the 1e-9 budget.
	taylorTol = 1e-13
	// taylorMaxTerms bounds the series; at θ = 1 the 25th term is
	// ~1/25! ≈ 6e-26, so the tolerance always triggers first.
	taylorMaxTerms = 25
	// interruptPollTicks is how many driven sample ticks may elapse between
	// polls of ExecOptions.Interrupted: frequent enough that cancelling a
	// single 100k-sample Play lands in microseconds, rare enough that the
	// callback (an atomic load in devices) costs nothing. The density
	// engine flushes ρ's subnormal parts at the same cadence, and every as
	// many dissipator sub-steps of an idle segment.
	interruptPollTicks = 1024
	// maxIdleStep caps the dissipator step (seconds) in idle segments, whose
	// unitary part is exact: only the collapse rates bound it.
	maxIdleStep = 500e-9
	// memoLimit bounds each of the executor's memos; a device's calibrated
	// schedules hold a handful of distinct (envelope value, duration) pairs
	// and idle lengths, so a small cap only guards against sweeps over
	// square-pulse amplitudes or delays and adversarial programs.
	memoLimit = 128
	// mapMaxDim is the largest Hilbert dimension n whose long open
	// stretches are stretch maps (useStretchMap): two d = 3 sites or three
	// d = 2 sites. A map is n⁴ float64s, at most 52 KB, memoLimit of them
	// 6.7 MB. At n = 16 a build costs up to eight stepped stretches and a map
	// 512 KB, which a drifting device, dropping its executor at every time
	// step, would pay again and again.
	mapMaxDim = 9
	// mapBuildRatio bounds a stretch map's build against stepping the
	// stretch it replaces: ⌈log₂(run+1)⌉·n³ ≤ mapBuildRatio·run. A product
	// is n⁶ multiply-adds and a stepped tick's conjugation about 6n³; at 32
	// the first sighting costs at most six stepped stretches and every later
	// one a mat-vec.
	mapBuildRatio = 32
)

// driveCoeff is one active drive contribution to a tick Hamiltonian:
// the channel's sparse raising operator with the complex weight
// w = π·RabiHz·χ(t), entering as w·Op + conj(w)·Op†.
type driveCoeff struct {
	op *linalg.Sparse
	w  complex128
}

// tickHam is the implicit (never densified) Hamiltonian of one sample
// tick: the constant drift plus the active drive terms. It is rebuilt by
// reslicing — appending to ops reuses the backing array, so steady-state
// operation allocates nothing.
type tickHam struct {
	drift *linalg.Sparse // nil when the (spectrally shifted) drift is zero
	ops   []driveCoeff
}

func (h *tickHam) reset() { h.ops = h.ops[:0] }

func (h *tickHam) add(op *linalg.Sparse, w complex128) {
	h.ops = append(h.ops, driveCoeff{op: op, w: w})
}

// normBound returns an upper bound on ‖H‖₂ by the triangle inequality
// over the cached per-operator norm bounds.
//
//mqss:hotloop
func (h *tickHam) normBound() float64 {
	var n float64
	if h.drift != nil {
		n = h.drift.NormBound()
	}
	for _, d := range h.ops {
		n += 2 * cmplx.Abs(d.w) * d.op.NormBound()
	}
	return n
}

// applyVec computes dst = H·src.
//
//mqss:hotloop
func (h *tickHam) applyVec(dst, src []complex128) {
	for i := range dst {
		dst[i] = 0
	}
	if h.drift != nil {
		h.drift.MulVecAccum(dst, src, 1)
	}
	for _, d := range h.ops {
		d.op.MulVecAccum(dst, src, d.w)
		d.op.DaggerMulVecAccum(dst, src, cmplx.Conj(d.w))
	}
}

// mulUpper writes the upper triangle (j ≥ i) of dst = r·H·src for a
// Hermitian src stored in full. Every term, the drift included, enters
// with its adjoint; the drift is Hermitian, so half its weight goes each
// way. Below the diagonal dst holds nothing of the product; dst must not
// alias src.
//
//mqss:hotloop
func (h *tickHam) mulUpper(dst, src *linalg.Matrix, r float64) {
	clear(dst.Data)
	if h.drift != nil {
		h.drift.HermMulMatUpperAccum(dst, src, complex(r/2, 0))
	}
	for _, d := range h.ops {
		d.op.HermMulMatUpperAccum(dst, src, complex(r, 0)*d.w)
	}
}

// vecStepper advances a state vector by one sample tick using the scaled
// Taylor expansion of exp(-i·H·dt). All scratch is preallocated; step
// performs zero allocations.
type vecStepper struct {
	acc, term, tmp []complex128
}

func newVecStepper(n int) *vecStepper {
	return &vecStepper{
		acc:  make([]complex128, n),
		term: make([]complex128, n),
		tmp:  make([]complex128, n),
	}
}

// step advances psi ← exp(-i·H·dt)·psi in place.
//
//mqss:hotloop
func (s *vecStepper) step(h *tickHam, psi []complex128, dt float64) {
	theta := h.normBound() * dt
	m := 1
	if theta > taylorThetaMax {
		m = int(math.Ceil(theta / taylorThetaMax))
	}
	sub := dt / float64(m)
	for i := 0; i < m; i++ {
		copy(s.acc, psi)
		copy(s.term, psi)
		for k := 1; k <= taylorMaxTerms; k++ {
			h.applyVec(s.tmp, s.term)
			c := complex(0, -sub/float64(k))
			var mx float64
			for j := range s.tmp {
				v := c * s.tmp[j]
				s.term[j] = v
				s.acc[j] += v
				if a := math.Abs(real(v)) + math.Abs(imag(v)); a > mx {
					mx = a
				}
			}
			if mx < taylorTol {
				break
			}
		}
		copy(psi, s.acc)
	}
}

// matStepper advances a density matrix by one sample tick under the
// unitary part of the dynamics: U = exp(-i·H·dt) is built densely, by the
// closed form at n = 2 (twoLevel) and by the scaled-Taylor series of
// Hermitian powers above it (taylor), then ρ ← U·ρ·U† is
// two allocation-free dense products, the second computed on the upper
// triangle only and mirrored. The dissipator is stepped separately by the
// splitting integrator (dissipate, in density.go), on the same scratch, and
// a long constant stretch as one map (stretchMap and applyMap, there too).
type matStepper struct {
	u, acc, term, tmp, work *linalg.Matrix
	// x and y hold one ρ's n² Hermitian coordinates each; the four n²×n²
	// matrices are a stretch map's build scratch, made on its first build.
	x, y                   []float64
	pow, prod, powT, baseT []float64
}

func newMatStepper(n int) *matStepper {
	return &matStepper{
		u:    linalg.NewMatrix(n, n),
		acc:  linalg.NewMatrix(n, n),
		term: linalg.NewMatrix(n, n),
		tmp:  linalg.NewMatrix(n, n),
		work: linalg.NewMatrix(n, n),
		x:    make([]float64, n*n),
		y:    make([]float64, n*n),
	}
}

// conjugateWith advances rho ← u·rho·u† in place without allocating,
// using the stepper's scratch; u may be any dense unitary (e.g. a cached
// stretch propagator) and must not alias rho. W = u·rho is a full
// product; of W·u† only the upper triangle is computed and mirrored, so
// rho leaves exactly Hermitian. At n = 2 the two products are spelled out
// (conjugate2).
//
//mqss:hotloop
func (s *matStepper) conjugateWith(u, rho *linalg.Matrix) {
	if rho.Rows == 2 {
		conjugate2(u, rho)
		return
	}
	u.MulInto(s.work, rho)
	s.work.MulDaggerHermInto(rho, u)
}

// conjugate2 is conjugateWith at n = 2 in closed form: W = u·rho entry by
// entry, then the upper triangle of W·u†, the diagonal's real part kept and
// the corner mirrored, summed in the dense products' order so that it
// rounds as they do.
//
//mqss:hotloop
func conjugate2(u, rho *linalg.Matrix) {
	r, u00, u01, u10, u11 := rho.Data[:4], u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	w00, w01 := u00*r[0]+u01*r[2], u00*r[1]+u01*r[3]
	w10, w11 := u10*r[0]+u11*r[2], u10*r[1]+u11*r[3]
	c := w00*cmplx.Conj(u10) + w01*cmplx.Conj(u11)
	r[0] = complex(real(w00*cmplx.Conj(u00)+w01*cmplx.Conj(u01)), 0)
	r[1], r[2] = c, cmplx.Conj(c)
	r[3] = complex(real(w10*cmplx.Conj(u10)+w11*cmplx.Conj(u11)), 0)
}

// propagator fills s.u with the density engine's tick propagator, exp(-i·H·dt)
// up to a scalar phase, which conjugation cancels: at n = 2 the closed form
// (twoLevel) without its phase e^{-iμt}, above it the scaled-Taylor
// approximation, one sub-step's series and then the remaining sub-steps
// applied by dense powering.
//
//mqss:hotloop
func (s *matStepper) propagator(h *tickHam, dt float64) {
	if s.u.Rows == 2 {
		s.twoLevel(h, dt, s.u)
		return
	}
	theta := h.normBound() * dt
	if theta <= taylorThetaMax {
		s.taylor(h, dt, s.u)
		return
	}
	m := int(math.Ceil(theta / taylorThetaMax))
	s.taylor(h, dt/float64(m), s.acc)
	s.acc.MulInto(s.u, s.acc)
	for i := 2; i < m; i++ {
		s.u.MulInto(s.work, s.acc)
		s.u, s.work = s.work, s.u
	}
}

// stretch returns a new matrix holding exp(-i·H·t)·phase, where phase is
// the spectral shift's e^{-iλt}, so the result is the unshifted propagator;
// n ≥ 3 (at n = 2 the closed form needs no build, see twoLevelStretch). It
// halves t until ‖H‖·t ≤ taylorThetaMax, expands the series there and
// squares the result back up in the stepper's scratch; the copy it returns
// is the build's one allocation.
func (s *matStepper) stretch(h *tickHam, t float64, phase complex128) *linalg.Matrix {
	halvings := 0
	for theta := h.normBound() * t; theta > taylorThetaMax; theta /= 2 {
		halvings++
	}
	s.taylor(h, math.Ldexp(t, -halvings), s.acc)
	x, y := s.acc, s.work
	for range halvings {
		x.MulInto(y, x)
		x, y = y, x
	}
	u := x.Clone()
	if phase != 1 {
		for i := range u.Data {
			u.Data[i] *= phase
		}
	}
	return u
}

// twoLevel fills the 2×2 u with exp(-i·(H − μI)·t) in closed form and
// returns μ, so that exp(-i·H·t) is e^{-iμt}·u. With μ and δ the mean and
// half the difference of H's diagonal, c its off-diagonal entry and
// r = √(δ² + |c|²), H − μI squares to r²·I, so
// exp(-i·(H − μI)·t) = cos(rt)·I − i·(sin(rt)/r)·(H − μI), where
// sin(rt)/r → t as r·t → 0. H is assembled in the tmp scratch.
//
//mqss:hotloop
func (s *matStepper) twoLevel(h *tickHam, t float64, u *linalg.Matrix) (mu float64) {
	hd := s.tmp
	clear(hd.Data)
	if h.drift != nil {
		h.drift.AddToDense(hd, 1)
	}
	for _, d := range h.ops {
		d.op.AddToDense(hd, d.w)
		d.op.DaggerAddToDense(hd, cmplx.Conj(d.w))
	}
	a, b, c := real(hd.Data[0]), real(hd.Data[3]), hd.Data[1]
	mu, delta := (a+b)/2, (a-b)/2
	r := math.Sqrt(delta*delta + real(c)*real(c) + imag(c)*imag(c))
	sn, cs := math.Sincos(r * t)
	sinc := t
	if r*t != 0 {
		sinc = sn / r
	}
	u.Data[0] = complex(cs, -sinc*delta)
	u.Data[1] = complex(sinc*imag(c), -sinc*real(c))
	u.Data[2] = complex(-sinc*imag(c), -sinc*real(c))
	u.Data[3] = complex(cs, sinc*delta)
	return mu
}

// taylor fills u with the Taylor series of exp(-i·H·t), truncated once the
// sup-norm of the next term drops below taylorTol; t must satisfy
// ‖H‖·t ≤ taylorThetaMax. Term k is (-i)^k·P_k with P_k = (t·H)^k/k!, a
// power of a Hermitian matrix and so Hermitian itself. The recursion
// carries Q_k = (−1)^⌊k/2⌋·P_k = ±(t/k)·H·Q_{k−1}, so that term k is Q_k
// for even k and −i·Q_k for odd k. Of each Q_k only the upper triangle is
// computed (tickHam.mulUpper), then mirrored for the next product; the
// term is added into u's upper triangle and its mirror into the lower one:
// conj(Q_k) for even k, −i·conj(Q_k) for odd k.
//
//mqss:hotloop
func (s *matStepper) taylor(h *tickHam, t float64, u *linalg.Matrix) {
	n := u.Rows
	q, next := s.term, s.tmp
	setIdentity(u)
	setIdentity(q)
	for k := 1; k <= taylorMaxTerms; k++ {
		odd := k%2 == 1
		r := t / float64(k)
		if !odd {
			r = -r
		}
		h.mulUpper(next, q, r)
		q, next = next, q
		var mx float64
		ud, qd := u.Data, q.Data[:len(u.Data)]
		for i := 0; i < n; i++ {
			ii := i*n + i
			d := real(qd[ii])
			qd[ii] = complex(d, 0)
			if odd {
				ud[ii] += complex(0, -d)
			} else {
				ud[ii] += complex(d, 0)
			}
			if a := math.Abs(d); a > mx {
				mx = a
			}
			// j walks row i right of the diagonal, l column i below it.
			for j, l := ii+1, ii+n; l < len(qd); j, l = j+1, l+n {
				a, b := real(qd[j]), imag(qd[j])
				qd[l] = complex(a, -b)
				if v := math.Abs(a) + math.Abs(b); v > mx {
					mx = v
				}
				if odd {
					ud[j] += complex(b, -a)
					ud[l] += complex(-b, -a)
				} else {
					ud[j] += complex(a, b)
					ud[l] += complex(a, -b)
				}
			}
		}
		if mx < taylorTol {
			break
		}
	}
}

//mqss:hotloop
func setIdentity(m *linalg.Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// propKey appends the lookup key for a constant-χ stretch to buf[:0] and
// returns the filled buffer: the sample period and the number of ticks,
// then per active play (in order) the channel port and the latched χ
// value; an idle stretch has no plays. It is a free function — every
// caller owns its scratch buffer, so concurrent runs never share
// key-building state.
func propKey(buf []byte, dt float64, active []playEvent, chis []complex128, ticks int64) []byte {
	b := binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(dt))
	b = binary.LittleEndian.AppendUint64(b, uint64(ticks))
	for i, p := range active {
		b = append(b, p.ch.PortID...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(chis[i])))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(chis[i])))
	}
	return b
}

// memo is the Executor's store of what a run builds from the model once
// and reuses: stretch propagators and stretch maps, keyed by the active
// (port, χ) pairs and the stretch duration (propKey), and the dissipator's
// step maps, keyed by the step size. The executor's runs, which may be
// concurrent, share it: lookups take a read lock, inserts a write lock, and
// values are immutable after insertion. Builds are deterministic functions
// of the key and the model, so two runs racing to insert one key produce
// bit-identical values, and no result depends on which won, nor on whether
// the memo was cold or warm.
type memo[V any] struct {
	mu sync.RWMutex
	m  map[string]V
	// order holds the keys in insertion order: once full, a ring whose
	// oldest key is order[next].
	order []string
	next  int
}

func newMemo[V any]() *memo[V] { return &memo[V]{m: map[string]V{}} }

// get looks up k without allocating (the map index converts the byte
// slice in place).
func (c *memo[V]) get(k []byte) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[string(k)]
	c.mu.RUnlock()
	return v, ok
}

// put inserts v under k unless k is present: the first writer wins. At
// capacity the oldest entry is evicted first, so long-running jobs with
// many distinct stretches keep a bounded footprint while still caching
// their current working set, and what the memo holds — its hit and miss
// counts too — follows from the order of its puts alone.
func (c *memo[V]) put(k []byte, v V) {
	c.mu.Lock()
	if _, ok := c.m[string(k)]; !ok {
		key := string(k)
		if len(c.order) < memoLimit {
			c.order = append(c.order, key)
		} else {
			delete(c.m, c.order[c.next])
			c.order[c.next] = key
			c.next = (c.next + 1) % memoLimit
		}
		c.m[key] = v
	}
	c.mu.Unlock()
}
