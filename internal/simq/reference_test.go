package simq

import "mqsspulse/internal/linalg"

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
