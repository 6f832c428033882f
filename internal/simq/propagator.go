package simq

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"sync"

	"mqsspulse/internal/linalg"
)

// This file implements the fast time-evolution path of the executor: a
// matrix-free scaled-Taylor propagator that advances ψ (or ρ) under the
// per-sample Hamiltonian without ever materializing a dense H, running an
// eigendecomposition, or allocating in steady state. The exact
// eigendecomposition propagator (linalg.ExpI) remains the reference — it
// is still used for idle segments and constant-envelope stretches (once
// per distinct stretch, memoized in the executor's propagator cache), and
// for every driven tick when a property test sets ExecOptions.exact.
//
// Accuracy: each sample tick applies exp(-i·H·dt) expanded as a Taylor
// series on the state, sub-stepped so that ‖H‖·dt_sub ≤ taylorThetaMax
// and truncated once the next term falls below taylorTol. With
// θ ≤ 1 the series converges superlinearly and the truncation error is
// ≲ 1e-13 per sub-step — far below the 1e-9 state-fidelity bound the
// property tests pin against exact ExpI.

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
	// callback (an atomic load in devices) costs nothing.
	interruptPollTicks = 1024
	// maxIdleStep caps the dissipator step (seconds) in idle segments, whose
	// unitary part is exact: only the collapse rates bound it.
	maxIdleStep = 500e-9
	// propCacheLimit bounds the constant-stretch propagator cache; a
	// device's calibrated schedules hold a handful of distinct (envelope
	// value, duration) pairs, so a small cap only guards against sweeps
	// over square-pulse amplitudes and adversarial programs.
	propCacheLimit = 128
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

// applyLeft computes dst = H·src for dense src.
//
//mqss:hotloop
func (h *tickHam) applyLeft(dst, src *linalg.Matrix) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	if h.drift != nil {
		h.drift.MulMatAccum(dst, src, 1)
	}
	for _, d := range h.ops {
		d.op.MulMatAccum(dst, src, d.w)
		d.op.DaggerMulMatAccum(dst, src, cmplx.Conj(d.w))
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
// unitary part of the dynamics: U = exp(-i·H·dt) is built densely by the
// scaled-Taylor series applied to the identity (a one-sided matrix-free
// expansion), then ρ ← U·ρ·U† is two allocation-free dense products, the
// second computed on the upper triangle only and mirrored. The
// dissipator is stepped separately by the splitting integrator
// (dissipate, in density.go), on the same scratch.
type matStepper struct {
	u, acc, term, tmp, work *linalg.Matrix
}

func newMatStepper(n int) *matStepper {
	return &matStepper{
		u:    linalg.NewMatrix(n, n),
		acc:  linalg.NewMatrix(n, n),
		term: linalg.NewMatrix(n, n),
		tmp:  linalg.NewMatrix(n, n),
		work: linalg.NewMatrix(n, n),
	}
}

// conjugate advances rho ← exp(-i·H·dt)·rho·exp(+i·H·dt) in place.
//
//mqss:hotloop
func (s *matStepper) conjugate(h *tickHam, rho *linalg.Matrix, dt float64) {
	s.propagator(h, dt)
	s.conjugateWith(s.u, rho)
}

// conjugateWith advances rho ← u·rho·u† in place without allocating,
// using the stepper's scratch; u may be any dense unitary (e.g. a cached
// stretch propagator) and must not alias rho. W = u·rho is a full
// product; of W·u† only the upper triangle is computed and mirrored, so
// rho leaves exactly Hermitian.
//
//mqss:hotloop
func (s *matStepper) conjugateWith(u, rho *linalg.Matrix) {
	u.MulInto(s.work, rho)
	s.work.MulDaggerHermInto(rho, u)
}

// propagator fills s.u with the scaled-Taylor approximation of
// exp(-i·H·dt): one sub-step expansion on the identity, then the
// remaining sub-steps applied by dense powering.
//
//mqss:hotloop
func (s *matStepper) propagator(h *tickHam, dt float64) {
	theta := h.normBound() * dt
	m := 1
	if theta > taylorThetaMax {
		m = int(math.Ceil(theta / taylorThetaMax))
	}
	sub := dt / float64(m)

	setIdentity(s.acc)
	setIdentity(s.term)
	for k := 1; k <= taylorMaxTerms; k++ {
		h.applyLeft(s.tmp, s.term)
		c := complex(0, -sub/float64(k))
		var mx float64
		for j := range s.tmp.Data {
			v := c * s.tmp.Data[j]
			s.term.Data[j] = v
			s.acc.Data[j] += v
			if a := math.Abs(real(v)) + math.Abs(imag(v)); a > mx {
				mx = a
			}
		}
		if mx < taylorTol {
			break
		}
	}
	copy(s.u.Data, s.acc.Data)
	for i := 1; i < m; i++ {
		s.u.MulInto(s.work, s.acc)
		s.u, s.work = s.work, s.u
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

// propCache memoizes exact propagators for constant-envelope stretches:
// the key encodes the active (port, χ) pairs and the stretch duration, so
// square pulses, flat-tops, idle gaps and repeated calibrated envelopes
// exponentiate once per distinct shape and reuse the dense propagator
// afterwards. The cache belongs to the Executor and is shared by all of
// its runs, which may be concurrent, so access is guarded: lookups take a
// read lock (the hot case — a warmed cache serves concurrent readers
// without contention), inserts a write lock. Cached matrices are
// immutable after insertion. Builds are deterministic functions of the
// key and of the executor's model, so two runs racing to insert the
// same key produce bit-identical matrices and a result never depends on
// which won, nor on whether the cache was cold or warm.
type propCache struct {
	mu sync.RWMutex
	m  map[string]*linalg.Matrix
}

func newPropCache() *propCache { return &propCache{m: map[string]*linalg.Matrix{}} }

// get looks up k without allocating (the map index converts the byte
// slice in place).
func (c *propCache) get(k []byte) (*linalg.Matrix, bool) {
	c.mu.RLock()
	u, ok := c.m[string(k)]
	c.mu.RUnlock()
	return u, ok
}

// put inserts u under k. At capacity an arbitrary existing entry is
// evicted first, so long-running jobs with many distinct stretches keep a
// bounded footprint while still caching their current working set.
func (c *propCache) put(k []byte, u *linalg.Matrix) {
	c.mu.Lock()
	if _, ok := c.m[string(k)]; !ok {
		if len(c.m) >= propCacheLimit {
			for victim := range c.m {
				delete(c.m, victim)
				break
			}
		}
		c.m[string(k)] = u
	}
	c.mu.Unlock()
}

// size reports the current entry count (test hook).
func (c *propCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
