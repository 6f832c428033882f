package simq

import (
	"math"
	"math/cmplx"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
)

// Dense reference implementation of the Lindblad generator, kept for
// tests only: the production dissipator (matStepper.dissipate over the
// model's precomputed collapseSet) is pinned against it entry by entry,
// with H = 0.

// LindbladRHS computes dρ/dt = -i[H,ρ] + Σ γ_k (L_k ρ L_k† − ½{L_k†L_k, ρ})
// with H in angular-frequency units (rad/s).
func LindbladRHS(h *linalg.Matrix, rho *linalg.Matrix, collapses []Collapse) *linalg.Matrix {
	// -i[H, ρ]
	out := h.Mul(rho).Sub(rho.Mul(h)).Scale(complex(0, -1))
	for _, c := range collapses {
		if c.Rate == 0 {
			continue
		}
		ld := c.L.Dagger()
		ldl := ld.Mul(c.L)
		jump := c.L.Mul(rho).Mul(ld)
		anti := ldl.Mul(rho).Add(rho.Mul(ldl)).Scale(0.5)
		out.AddInPlace(jump.Sub(anti), complex(c.Rate, 0))
	}
	return out
}

// LindbladStepRK4 advances ρ by dt seconds under constant H using classical
// Runge-Kutta 4. H is in rad/s.
func LindbladStepRK4(h *linalg.Matrix, rho *Density, collapses []Collapse, dt float64) {
	k1 := LindbladRHS(h, rho.Rho, collapses)
	r2 := rho.Rho.Clone()
	r2.AddInPlace(k1, complex(dt/2, 0))
	k2 := LindbladRHS(h, r2, collapses)
	r3 := rho.Rho.Clone()
	r3.AddInPlace(k2, complex(dt/2, 0))
	k3 := LindbladRHS(h, r3, collapses)
	r4 := rho.Rho.Clone()
	r4.AddInPlace(k3, complex(dt, 0))
	k4 := LindbladRHS(h, r4, collapses)

	rho.Rho.AddInPlace(k1, complex(dt/6, 0))
	rho.Rho.AddInPlace(k2, complex(dt/3, 0))
	rho.Rho.AddInPlace(k3, complex(dt/3, 0))
	rho.Rho.AddInPlace(k4, complex(dt/6, 0))
}

// The exact reference integrator, also for tests only: runExact walks a
// prepared program's plan as Program.Run does, but every propagator is
// linalg.ExpI of the dense Hamiltonian with the true, unshifted drift — one
// per driven tick, whatever its step's kind, and one per idle segment — and
// nothing is cached. The dissipator steps are the product's own. The
// property tests pin every fast path against it.

// runExact is runEvolved by the exact reference. Its result holds the
// evolved state and the engine's counters; it samples no shots.
func runExact(p *Program) (*evolved, error) {
	e, dims := p.exec, p.exec.Model.Dims
	eng := e.newFastEngine(e.openSystem(), p.dt)
	out := &evolved{ExecResult: &ExecResult{}}
	var st *State
	var rho *Density
	var step *stepMap
	if e.openSystem() {
		rho = NewDensity(dims)
		out.FinalDensity = &qdensity{rho, dims}
		step = e.dissipatorStep(eng, eng.dt)
	} else {
		st = NewState(dims)
		out.FinalState = &qstate{st, dims}
	}
	var on []int32
	for i := range p.steps {
		s := &p.steps[i]
		if s.first {
			on = eng.load(p, s)
		}
		if s.kind == kindIdle {
			if !e.driftFree() {
				u, err := exactPropagator(e, nil, nil, float64(s.n)*p.dt)
				if err != nil {
					return nil, err
				}
				eng.apply(u, st, rho)
			}
			eng.dissipateIdle(e, step, s.n, rho)
			continue
		}
		for tick := s.t0; tick < s.t0+s.n; tick++ {
			eng.chis = p.chis(eng.chis[:0], on, tick)
			u, err := exactPropagator(e, eng.active, eng.chis, p.dt)
			if err != nil {
				return nil, err
			}
			eng.apply(u, st, rho)
			eng.dissipate(step, rho)
		}
	}
	if st != nil {
		st.Renormalize()
	}
	out.EngineStats = eng.EngineStats
	return out, nil
}

// execExact is execEvolved by the exact reference.
func execExact(ex *Executor, sp *pulse.ScheduledProgram) (*evolved, error) {
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		return nil, err
	}
	return runExact(p)
}

// exactPropagator is exp(−i·H·t) by linalg.ExpI, H the dense Hamiltonian of
// the model's drift and the drive (active, chis).
func exactPropagator(e *Executor, active []playEvent, chis []complex128, t float64) (*linalg.Matrix, error) {
	h := e.Model.Drift.Clone()
	for i := range active {
		active[i].ch.driveTerm(h, chis[i])
	}
	return linalg.ExpI(h, t)
}

// driveTerm accumulates the channel's contribution for complex drive value
// chi into h: h += π·RabiHz·(χ·OpRaise + χ*·OpRaise†).
func (c *ControlChannel) driveTerm(h *linalg.Matrix, chi complex128) {
	if chi == 0 {
		return
	}
	w := complex(math.Pi*c.RabiHz, 0)
	c.opSparse.AddToDense(h, w*chi)
	c.opSparse.DaggerAddToDense(h, w*cmplx.Conj(chi))
}
