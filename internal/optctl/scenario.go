package optctl

import (
	"math"

	"mqsspulse/internal/linalg"
)

// TransmonXProblem is the canonical optimal-control scenario of the paper's
// Section 2.1: synthesize a leakage-free X gate on a 3-level transmon driven
// by two quadratures in the frame of its believed frequency. It is the model
// open-loop GRAPE optimizes on; how far the hardware sits from it is the
// hardware's business, measured in closed loop.
type TransmonXProblem struct {
	// Slots and Dt define the pulse grid.
	Slots int
	Dt    float64
	// AnharmHz is the transmon anharmonicity.
	AnharmHz float64
	// RabiHz is the full-scale Rabi rate.
	RabiHz float64
}

// ModelSystem is the control system GRAPE optimizes on.
func (p *TransmonXProblem) ModelSystem() *ControlSystem {
	drift := linalg.NewMatrix(3, 3)
	for n := 0; n < 3; n++ {
		drift.Set(n, n, complex(2*math.Pi*(p.AnharmHz/2*float64(n)*float64(n-1)), 0))
	}
	a := linalg.Annihilation(3)
	ad := linalg.Creation(3)
	// Two quadrature controls: (a + a†) and i(a − a†), scaled so that
	// amplitude 1.0 corresponds to the full-scale Rabi rate.
	w := complex(math.Pi*p.RabiHz, 0)
	return &ControlSystem{
		Drift:    drift,
		Controls: []*linalg.Matrix{a.Add(ad).Scale(w), a.Sub(ad).Scale(w * complex(0, 1))},
		Dt:       p.Dt,
		Slots:    p.Slots,
		MaxAmp:   1.0,
	}
}

// TargetX returns the qubit-subspace X gate and the projector onto the
// computational subspace of the 3-level transmon.
func TargetX() (target, proj *linalg.Matrix) {
	target = linalg.PauliX()
	proj = linalg.NewMatrix(3, 2)
	proj.Set(0, 0, 1)
	proj.Set(1, 1, 1)
	return target, proj
}

// GaussianSeed initializes the in-phase control with a Gaussian π-pulse
// guess (area-calibrated for the nominal Rabi rate).
func (p *TransmonXProblem) GaussianSeed() *Pulse {
	pl := NewPulse(p.ModelSystem())
	sigma := 0.2 * float64(p.Slots)
	mu := float64(p.Slots-1) / 2
	// Area for a π rotation: Σ u_k · 2π·Rabi·dt = π  (factor 2 from x+x†).
	var sum float64
	raw := make([]float64, p.Slots)
	for k := 0; k < p.Slots; k++ {
		raw[k] = math.Exp(-(float64(k) - mu) * (float64(k) - mu) / (2 * sigma * sigma))
		sum += raw[k]
	}
	scale := 1 / (2 * p.RabiHz * p.Dt * sum)
	for k := 0; k < p.Slots; k++ {
		pl.Amps[k][0] = math.Min(1, raw[k]*scale)
	}
	return pl
}
