package simq

import (
	"math"
	"math/cmplx"
	"math/rand"

	"mqsspulse/internal/linalg"
)

// This file implements the Monte-Carlo quantum-trajectory integrator
// (IntegratorTrajectory): open-system dynamics unraveled as an ensemble
// of stochastic pure-state trajectories instead of one dense Lindblad
// evolution. Each shot evolves |ψ⟩ under the effective non-Hermitian
// Hamiltonian
//
//	H_eff = H(t) − (i/2)·D,   D = Σ_k γ_k·L_k†L_k,
//
// whose no-jump evolution shrinks the norm monotonically (D is positive
// semidefinite). A uniform threshold r ∈ [0,1) is drawn; when ‖ψ‖² first
// falls below r a collapse fires: the jump time is located by bisection
// inside the crossing tick (valid precisely because the norm is
// monotone), channel k is selected with probability ∝ γ_k·‖L_k ψ‖², the
// state collapses to L_k ψ (renormalized), and a fresh threshold is
// drawn. Averaged over shots this reproduces the Lindblad density
// dynamics exactly — the density engine stays the pinned reference
// (statistical convergence tests in trajectory_test.go) — at O(d) state
// cost per shot instead of O(d²), and every shot is independent, which
// is what makes the shot worker pool embarrassingly parallel.
//
// Global phase is deliberately not tracked: every downstream observable
// (norms, jump weights, |ψ|² sampling) is phase-invariant, so the
// spectral-shift scalar e^{-iλt} of the fast path never needs to be
// restored here.

// trajBisectIters bounds the bisection that locates a norm-threshold
// crossing inside one sample tick: 20 halvings resolve the jump time to
// dt·2⁻²⁰ ≈ 1 fs at 1 GS/s, far below any decoherence timescale.
const trajBisectIters = 20

// trajSpan is a precomputed run of sample ticks sharing one active-play
// set: either a constant-χ stretch (chis set, advanced by one cached
// dense propagator per shot) or a varying-envelope run (tickChis set,
// advanced matrix-free tick by tick).
type trajSpan struct {
	active   []playEvent
	ticks    int64
	chis     []complex128   // constant span: the shared χ tuple
	tickChis [][]complex128 // varying span: one χ tuple per tick
}

// trajShared is the read-only per-run context shared by every trajectory
// shot worker: the flattened integration spans of this program, next to
// the executor whose model carries the collapse channels and the decay
// operator D = Σ γ_k·L_k†L_k and whose propagator cache all workers (and
// all runs) share. It is built once, before the worker pool starts, and
// never mutated afterwards.
type trajShared struct {
	ex    *Executor
	spans []trajSpan
	cols  []sparseCollapse
	dt    float64
	dims  []int
	n     int
}

// newTrajShared flattens the program for one trajectory run.
func newTrajShared(e *Executor, plays []playEvent, makespan int64, dt float64) *trajShared {
	return &trajShared{
		ex:    e,
		spans: buildTrajSpans(plays, makespan, dt),
		cols:  e.Model.collapse.ops,
		dt:    dt,
		dims:  e.Model.Dims,
		n:     e.Model.HilbertDim(),
	}
}

// buildTrajSpans flattens the schedule into integration spans: segment
// boundaries at every play start/end (as in evolve), then constant-χ
// lookahead inside each segment (as in drivenFast) — but resolved once
// per run instead of once per shot, so the per-shot walk touches only
// precomputed data and allocates nothing.
func buildTrajSpans(plays []playEvent, makespan int64, dt float64) []trajSpan {
	sorted := append([]playEvent(nil), plays...)
	sortPlays(sorted)
	ticks := segmentTicks(sorted, makespan)

	var spans []trajSpan
	for si := 0; si+1 < len(ticks); si++ {
		t0, t1 := ticks[si], ticks[si+1]
		if t0 == t1 {
			continue
		}
		active := activePlays(nil, sorted, t0) // retained by the spans
		if len(active) == 0 {
			spans = append(spans, trajSpan{ticks: t1 - t0})
			continue
		}
		var varying [][]complex128
		flushVarying := func() {
			if len(varying) > 0 {
				spans = append(spans, trajSpan{active: active, ticks: int64(len(varying)), tickChis: varying})
				varying = nil
			}
		}
		for tick := t0; tick < t1; {
			chis := make([]complex128, len(active))
			for i := range active {
				chis[i] = chiAt(&active[i], tick, dt)
			}
			run := int64(1)
			for tick+run < t1 {
				same := true
				for i := range active {
					if chiAt(&active[i], tick+run, dt) != chis[i] {
						same = false
						break
					}
				}
				if !same {
					break
				}
				run++
			}
			if run == 1 {
				varying = append(varying, chis)
			} else {
				flushVarying()
				spans = append(spans, trajSpan{active: active, ticks: run, chis: chis})
			}
			tick += run
		}
		flushVarying()
	}
	return spans
}

// trajWorker is one shot worker's private trajectory state: a fast
// engine (state-vector steppers, key scratch, counters), the state and
// its scratch vectors, and the norm threshold of the trajectory in
// flight. Workers run concurrently, sharing only trajShared, the
// executor's immutable precompute and its locked cache.
type trajWorker struct {
	sh          *trajShared
	eng         *fastEngine
	interrupted func() bool

	psi     []complex128 // the trajectory state
	prev    []complex128 // state before the current tick/interval
	probe   []complex128 // bisection scratch
	tmp     []complex128 // dense-propagator application scratch
	jmp     []complex128 // jump-operator application scratch
	jumpCum []float64    // cumulative jump-channel weights
	cum     []float64    // cumulative |ψ|² for outcome sampling

	r         float64 // current norm² threshold
	sincePoll int64   // ticks since Interrupted was last polled
}

// newWorker builds one trajectory worker wired to the shared context.
func (sh *trajShared) newWorker(interrupted func() bool) *trajWorker {
	eng := sh.ex.newFastEngine(false, sh.dt)
	eng.ham.decay = sh.ex.Model.collapse.decay
	return &trajWorker{
		sh:          sh,
		eng:         eng,
		interrupted: interrupted,
		psi:         make([]complex128, sh.n),
		prev:        make([]complex128, sh.n),
		probe:       make([]complex128, sh.n),
		tmp:         make([]complex128, sh.n),
		jmp:         make([]complex128, sh.n),
		jumpCum:     make([]float64, len(sh.cols)),
		cum:         make([]float64, sh.n),
	}
}

// poll charges consumed ticks against the cancellation budget and checks
// Interrupted once interruptPollTicks (1024) have accumulated, matching
// the deterministic engines' poll bound.
func (w *trajWorker) poll(consumed int64) bool {
	if w.interrupted == nil {
		return false
	}
	w.sincePoll += consumed
	if w.sincePoll >= interruptPollTicks {
		w.sincePoll = 0
		return w.interrupted()
	}
	return false
}

// runShot integrates one full stochastic trajectory, leaving the
// normalized final state in w.psi. Every random draw comes from rng —
// the shot's private stream — so the outcome is a pure function of (job
// seed, shot index), independent of which worker ran it or in what
// order shots completed. Zero allocations in steady state (the cache
// warmed, ham.ops backing grown): pinned by the AllocsPerRun test.
func (w *trajWorker) runShot(rng *rand.Rand) error {
	for i := range w.psi {
		w.psi[i] = 0
	}
	w.psi[0] = 1
	w.r = rng.Float64()
	for si := range w.sh.spans {
		sp := &w.sh.spans[si]
		if sp.tickChis == nil {
			if err := w.constantSpan(sp.active, sp.chis, sp.ticks, rng); err != nil {
				return err
			}
			continue
		}
		for _, chis := range sp.tickChis {
			w.eng.loadHam(sp.active, chis)
			w.advanceInterval(w.sh.dt, rng)
			if w.poll(1) {
				return ErrInterrupted
			}
		}
	}
	renorm(w.psi)
	return nil
}

// constantSpan advances ψ over a constant-χ stretch. The optimistic path
// is one cached dense propagator for the whole stretch — a single
// matrix-vector product per shot; only if the norm crossed the threshold
// somewhere inside does the worker rewind and rescan tick by tick (with
// the cached single-tick propagator) to locate the crossing tick, then
// resolve the jump matrix-free inside it. Jumps are rare on decoherence
// timescales, so the expensive path amortizes to nothing.
func (w *trajWorker) constantSpan(active []playEvent, chis []complex128, ticks int64, rng *rand.Rand) error {
	u, err := w.sh.ex.propagator(w.eng, propEffective, active, chis, ticks)
	if err != nil {
		return err
	}
	copy(w.prev, w.psi)
	u.MulVecInto(w.tmp, w.psi)
	w.psi, w.tmp = w.tmp, w.psi
	if normSq(w.psi) >= w.r {
		if w.poll(ticks) {
			return ErrInterrupted
		}
		return nil
	}
	// At least one jump fires inside the stretch: rewind and scan.
	copy(w.psi, w.prev)
	u1, err := w.sh.ex.propagator(w.eng, propEffective, active, chis, 1)
	if err != nil {
		return err
	}
	hamLoaded := false
	for k := int64(0); k < ticks; k++ {
		copy(w.prev, w.psi)
		u1.MulVecInto(w.tmp, w.psi)
		w.psi, w.tmp = w.tmp, w.psi
		if normSq(w.psi) < w.r {
			// Crossing tick: rewind one tick and resolve matrix-free.
			copy(w.psi, w.prev)
			if !hamLoaded {
				w.eng.loadHam(active, chis)
				hamLoaded = true
			}
			w.advanceInterval(w.sh.dt, rng)
		}
		if w.poll(1) {
			return ErrInterrupted
		}
	}
	return nil
}

// advanceInterval advances ψ by span seconds under the effective
// Hamiltonian currently loaded in w.eng.ham, resolving every
// norm-threshold crossing inside it: bisection locates the jump time
// (valid because the no-jump norm is monotonically nonincreasing), the
// jump is applied, a fresh threshold drawn, and the remainder of the
// interval continues — so even several jumps within one sample tick
// resolve correctly.
//
//mqss:hotloop
func (w *trajWorker) advanceInterval(span float64, rng *rand.Rand) {
	for span > 0 {
		copy(w.prev, w.psi)
		w.eng.vec.step(w.eng.ham, w.psi, span)
		if normSq(w.psi) >= w.r {
			return
		}
		// Bisect the crossing time in (0, span].
		lo, hi := 0.0, span
		for it := 0; it < trajBisectIters; it++ {
			mid := 0.5 * (lo + hi)
			copy(w.probe, w.prev)
			w.eng.vec.step(w.eng.ham, w.probe, mid)
			if normSq(w.probe) < w.r {
				hi = mid
			} else {
				lo = mid
			}
		}
		copy(w.psi, w.prev)
		w.eng.vec.step(w.eng.ham, w.psi, hi)
		w.applyJump(rng)
		w.r = rng.Float64()
		span -= hi
	}
}

// applyJump collapses ψ through one stochastically selected channel:
// k with probability ∝ γ_k·‖L_k ψ‖², then ψ ← L_k ψ / ‖L_k ψ‖ — the
// standard unraveling weights that make the shot ensemble average to the
// Lindblad density evolution.
//
//mqss:hotloop
func (w *trajWorker) applyJump(rng *rand.Rand) {
	total := 0.0
	for i := range w.sh.cols {
		c := &w.sh.cols[i]
		for j := range w.jmp {
			w.jmp[j] = 0
		}
		c.op.MulVecAccum(w.jmp, w.psi, 1)
		total += c.rate * normSq(w.jmp)
		w.jumpCum[i] = total
	}
	if total <= 0 {
		// No channel acts on ψ (e.g. pure damping from the ground state):
		// the norm cannot truly cross, so this is numerical underflow at
		// the threshold — renormalize and carry on without a jump.
		renorm(w.psi)
		return
	}
	r := rng.Float64() * total
	k := 0
	for k < len(w.jumpCum)-1 && w.jumpCum[k] < r {
		k++
	}
	for j := range w.jmp {
		w.jmp[j] = 0
	}
	w.sh.cols[k].op.MulVecAccum(w.jmp, w.psi, 1)
	inv := complex(1/math.Sqrt(normSq(w.jmp)), 0)
	for j := range w.psi {
		w.psi[j] = w.jmp[j] * inv
	}
}

// sampleOutcome draws one projective outcome from |ψ|²: bit i of the
// returned mask is set when sites[i] measured at level ≥ 1.
//
//mqss:hotloop
func (w *trajWorker) sampleOutcome(rng *rand.Rand, sites []int) uint64 {
	acc := 0.0
	for i, a := range w.psi {
		acc += real(a)*real(a) + imag(a)*imag(a)
		w.cum[i] = acc
	}
	return siteMask(w.sh.dims, sites, drawIndex(rng, w.cum, acc))
}

// expEffective exponentiates exp(−i·h·t) for a dense, not necessarily
// Hermitian h (the trajectory engine's effective Hamiltonians): the mean
// diagonal is shifted out and restored as an exact scalar factor (for
// H_eff its imaginary part is a uniform decay rate), the shifted
// generator is expanded by the scaled Taylor series so every sub-step
// satisfies ‖H‖·t_sub ≤ taylorThetaMax, and the sub-steps recombine by
// binary powering — a 100 µs idle stretch costs O(log substeps) dense
// multiplications instead of one per sub-step. Allocates freely: it only
// runs on propagator-cache misses.
func expEffective(h *linalg.Matrix, t float64) *linalg.Matrix {
	n := h.Rows
	sh := h.Clone()
	var mu complex128
	for i := 0; i < n; i++ {
		mu += sh.At(i, i)
	}
	mu /= complex(float64(n), 0)
	for i := 0; i < n; i++ {
		sh.Set(i, i, sh.At(i, i)-mu)
	}
	var norm float64
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			row += cmplx.Abs(sh.At(i, j))
		}
		if row > norm {
			norm = row
		}
	}
	m := 1
	if theta := norm * math.Abs(t); theta > taylorThetaMax {
		m = int(math.Ceil(theta / taylorThetaMax))
	}
	sub := t / float64(m)
	u := linalg.NewMatrix(n, n)
	term := linalg.NewMatrix(n, n)
	setIdentity(u)
	setIdentity(term)
	for k := 1; k <= taylorMaxTerms; k++ {
		term = sh.Mul(term)
		c := complex(0, -sub/float64(k))
		var mx float64
		for j := range term.Data {
			v := c * term.Data[j]
			term.Data[j] = v
			u.Data[j] += v
			if a := math.Abs(real(v)) + math.Abs(imag(v)); a > mx {
				mx = a
			}
		}
		if mx < taylorTol {
			break
		}
	}
	res := linalg.NewMatrix(n, n)
	setIdentity(res)
	pow := u
	for rem := m; rem > 0; rem >>= 1 {
		if rem&1 == 1 {
			res = res.Mul(pow)
		}
		if rem > 1 {
			pow = pow.Mul(pow)
		}
	}
	scale := cmplx.Exp(complex(0, -t) * mu)
	for i := range res.Data {
		res.Data[i] *= scale
	}
	return res
}

// normSq returns ⟨v|v⟩ without allocating.
//
//mqss:hotloop
func normSq(v []complex128) float64 {
	var s float64
	for _, a := range v {
		s += real(a)*real(a) + imag(a)*imag(a)
	}
	return s
}

// renorm rescales v to unit norm in place (no-op on the zero vector).
//
//mqss:hotloop
func renorm(v []complex128) {
	n := math.Sqrt(normSq(v))
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}
