// Package optctl implements pulse engineering by optimal control — the
// paper's second pulse-level use case (Section 2.1): open-loop GRAPE
// gradient pulse design against a model Hamiltonian, closed-loop
// optimization (SPSA, Nelder-Mead) against measured fidelities, and the
// hybrid open-then-closed strategy the paper notes is "increasingly adopted
// for achieving near-optimal control on NISQ devices".
package optctl

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"mqsspulse/internal/linalg"
)

// ControlSystem defines a piecewise-constant bilinear control problem:
// H(t) = Drift + Σ_j u_j(t)·Controls[j], with u in physical units (rad/s
// folded into the control operators; amplitudes are dimensionless).
type ControlSystem struct {
	Drift    *linalg.Matrix
	Controls []*linalg.Matrix
	// Dt is the slot duration in seconds.
	Dt float64
	// Slots is the number of piecewise-constant time slots.
	Slots int
	// MaxAmp bounds |u| per control (0 = unbounded).
	MaxAmp float64
}

// Validate checks dimensions and Hermiticity.
func (cs *ControlSystem) Validate() error {
	if cs.Drift == nil || !cs.Drift.IsSquare() {
		return errors.New("optctl: drift must be square")
	}
	if len(cs.Controls) == 0 {
		return errors.New("optctl: no control operators")
	}
	if cs.Dt <= 0 || cs.Slots <= 0 {
		return errors.New("optctl: non-positive dt or slots")
	}
	tol := 1e-9 * (1 + cs.Drift.MaxAbs())
	if !cs.Drift.IsHermitian(tol) {
		return errors.New("optctl: drift not Hermitian")
	}
	for j, c := range cs.Controls {
		if c.Rows != cs.Drift.Rows || c.Cols != cs.Drift.Cols {
			return fmt.Errorf("optctl: control %d dimension mismatch", j)
		}
		if !c.IsHermitian(1e-9 * (1 + c.MaxAbs())) {
			return fmt.Errorf("optctl: control %d not Hermitian", j)
		}
	}
	return nil
}

// Pulse is a control amplitude table: Amps[k][j] is control j in slot k.
type Pulse struct {
	Amps [][]float64
}

// NewPulse allocates a zero pulse for the system.
func NewPulse(cs *ControlSystem) *Pulse {
	amps := make([][]float64, cs.Slots)
	for k := range amps {
		amps[k] = make([]float64, len(cs.Controls))
	}
	return &Pulse{Amps: amps}
}

// Clone deep-copies the pulse.
func (p *Pulse) Clone() *Pulse {
	c := &Pulse{Amps: make([][]float64, len(p.Amps))}
	for k, row := range p.Amps {
		c.Amps[k] = append([]float64(nil), row...)
	}
	return c
}

// Flatten serializes amplitudes row-major (for generic optimizers).
func (p *Pulse) Flatten() []float64 {
	var out []float64
	for _, row := range p.Amps {
		out = append(out, row...)
	}
	return out
}

// clip enforces the amplitude bound in place.
func (p *Pulse) clip(maxAmp float64) {
	for _, row := range p.Amps {
		for j, u := range row {
			row[j] = clamp(u, maxAmp)
		}
	}
}

// clamp bounds v to [−bound, bound]; a bound ≤ 0 is none.
func clamp(v, bound float64) float64 {
	if bound <= 0 {
		return v
	}
	return math.Max(-bound, math.Min(bound, v))
}

// slotPropagators returns each slot's propagator exp(−i·H_k·Δt).
func (cs *ControlSystem) slotPropagators(p *Pulse) ([]*linalg.Matrix, error) {
	us := make([]*linalg.Matrix, cs.Slots)
	for k := range us {
		h := cs.Drift.Clone()
		for j, c := range cs.Controls {
			if p.Amps[k][j] != 0 {
				h.AddInPlace(c, complex(p.Amps[k][j], 0))
			}
		}
		var err error
		if us[k], err = linalg.ExpI(h, cs.Dt); err != nil {
			return nil, err
		}
	}
	return us, nil
}

// product returns U_N···U_1 for slot propagators us on an n-dimensional
// space.
func product(n int, us []*linalg.Matrix) *linalg.Matrix {
	u := linalg.Identity(n)
	for _, uk := range us {
		u = uk.Mul(u)
	}
	return u
}

// GateFidelity is the standard |tr(U_target† U)|²/d² measure over the full
// space, or over a projected computational subspace when proj is non-nil
// (for leakage-aware targets: proj selects the qubit subspace columns).
func GateFidelity(target, u *linalg.Matrix, proj *linalg.Matrix) float64 {
	tr := overlap(target, u, proj)
	return real(tr)*real(tr) + imag(tr)*imag(tr)
}

// overlap returns tr(T†·P†MP)/d, M's normalized overlap with the target T
// on the subspace proj selects (all of it when proj is nil).
func overlap(target, m *linalg.Matrix, proj *linalg.Matrix) complex128 {
	if proj != nil {
		m = proj.Dagger().Mul(m).Mul(proj)
	}
	return target.Dagger().Mul(m).Trace() / complex(float64(target.Rows), 0)
}

// GrapeOptions tunes the gradient ascent.
type GrapeOptions struct {
	// Iters is the maximum number of gradient steps (default 200).
	Iters int
	// LearningRate is the initial gradient-ascent step size (default 0.2);
	// backtracking halves it on non-improving steps and grows it on
	// accepted ones.
	LearningRate float64
	// Tol stops when 1-F drops below it (default 1e-6).
	Tol float64
}

// GrapeResult reports the optimization trajectory.
type GrapeResult struct {
	Pulse      *Pulse
	Fidelity   float64
	Iterations int
	// Trace holds the fidelity after each accepted iteration.
	Trace []float64
}

// GrapeUnitary runs gradient-ascent pulse engineering toward a target
// unitary (optionally projected onto a computational subspace). Gradients
// use the first-order GRAPE approximation dU_k/du ≈ -i·Δt·H_j·U_k, exact in
// the limit of small slot durations.
func GrapeUnitary(cs *ControlSystem, target *linalg.Matrix, proj *linalg.Matrix, init *Pulse, opts GrapeOptions) (*GrapeResult, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if opts.Iters <= 0 {
		opts.Iters = 200
	}
	if opts.LearningRate <= 0 {
		opts.LearningRate = 0.2
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	p := init.Clone()
	p.clip(cs.MaxAmp)
	n := cs.Drift.Rows

	fidelity := func(pl *Pulse) (float64, []*linalg.Matrix, error) {
		us, err := cs.slotPropagators(pl)
		if err != nil {
			return 0, nil, err
		}
		return GateFidelity(target, product(n, us), proj), us, nil
	}

	f, us, err := fidelity(p)
	if err != nil {
		return nil, err
	}
	res := &GrapeResult{Pulse: p, Fidelity: f, Trace: []float64{f}}
	lr := opts.LearningRate

	for it := 0; it < opts.Iters && 1-res.Fidelity > opts.Tol; it++ {
		// Backward accumulators: forward products F_k = U_k...U_1 and
		// backward products B_k = U_N...U_{k+1}.
		fwd := make([]*linalg.Matrix, cs.Slots+1)
		fwd[0] = linalg.Identity(n)
		for k := 0; k < cs.Slots; k++ {
			fwd[k+1] = us[k].Mul(fwd[k])
		}
		bwd := make([]*linalg.Matrix, cs.Slots+1)
		bwd[cs.Slots] = linalg.Identity(n)
		for k := cs.Slots - 1; k >= 0; k-- {
			bwd[k] = bwd[k+1].Mul(us[k])
		}
		total := fwd[cs.Slots]

		// F = |g|², g the overlap of the total propagator with the target.
		g := overlap(target, total, proj)

		grad := make([][]float64, cs.Slots)
		for k := range grad {
			grad[k] = make([]float64, len(cs.Controls))
		}
		for k := 0; k < cs.Slots; k++ {
			// dU/du_kj ≈ B_{k} · (-iΔt H_j U_k) · F_{k} ... assembled as
			// bwd[k+1] · (-iΔt H_j) · fwd[k+1].
			for j, c := range cs.Controls {
				dg := overlap(target, bwd[k+1].Mul(c).Mul(fwd[k+1]), proj) * complex(0, -cs.Dt)
				// dF/du = 2·Re(conj(g)·dg)
				grad[k][j] = 2 * real(cmplx.Conj(g)*dg)
			}
		}
		var norm float64
		for k := range grad {
			for _, v := range grad[k] {
				norm += v * v
			}
		}
		if math.Sqrt(norm) < 1e-15 {
			break
		}
		// Backtracking line search: step ∝ gradient, adaptive rate.
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			cand := p.Clone()
			for k := range cand.Amps {
				for j := range cand.Amps[k] {
					cand.Amps[k][j] += lr * grad[k][j]
				}
			}
			cand.clip(cs.MaxAmp)
			cf, cus, err := fidelity(cand)
			if err != nil {
				return nil, err
			}
			if cf > res.Fidelity {
				p, us = cand, cus
				res.Pulse, res.Fidelity = p, cf
				res.Trace = append(res.Trace, cf)
				improved = true
				lr *= 1.3
				break
			}
			lr /= 2
		}
		res.Iterations = it + 1
		if !improved {
			break
		}
	}
	return res, nil
}
