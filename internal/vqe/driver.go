package vqe

import (
	"context"
	"fmt"

	"mqsspulse/internal/compiler"
	"mqsspulse/internal/optctl"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qrm"
)

// Estimator measures Hamiltonian expectation values by running ansatz
// circuits on a device, one job per qubit-wise-commuting measurement group.
// It is an adapter in the paper's sense: it hands the scheduler its mixed
// gate/pulse QIR module (Listings 1–3) as a compiled program, and the
// scheduler — not the estimator — submits it to the device.
type Estimator struct {
	QRM    *qrm.Scheduler
	Device string
	Shots  int
}

// Energy estimates ⟨H⟩ for the ansatz at params. It returns the energy and
// the longest executed schedule duration (the decoherence exposure of one
// evaluation).
func (e *Estimator) Energy(ctx context.Context, h *Hamiltonian, a Ansatz, params []float64) (float64, float64, error) {
	groups, identity := h.GroupTerms()
	energy := identity
	var maxDur float64
	for _, g := range groups {
		mod, err := a.BuildModule(params, g.Basis)
		if err != nil {
			return 0, 0, err
		}
		tk, err := e.QRM.SubmitCtx(ctx, qrm.Request{
			Device: e.Device, Shots: e.Shots,
			Template: &ptemplate.Compiled{Module: mod, Format: compiler.FormatFor(mod)}})
		if err != nil {
			return 0, 0, err
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			return 0, 0, err
		}
		energy += GroupEnergy(g, res.Counts, res.Shots)
		if res.DurationSeconds > maxDur {
			maxDur = res.DurationSeconds
		}
	}
	return energy, maxDur, nil
}

// Options configures a VQE run.
type Options struct {
	// Shots per measurement group per evaluation (default 512).
	Shots int
	// MaxEvals bounds optimizer evaluations (default 150).
	MaxEvals int
	// InitStep is the Nelder-Mead initial simplex size (default 0.4).
	InitStep float64
}

// RunResult summarizes a VQE optimization.
type RunResult struct {
	Energy float64
	Params []float64
	Evals  int
	// ScheduleSeconds is the ansatz schedule duration at the optimum — the
	// quantity ctrl-VQE shrinks relative to gate-level ansätze.
	ScheduleSeconds float64
	// Trace is the best-so-far energy after each evaluation.
	Trace []float64
}

// Run minimizes the measured energy over the ansatz parameters with
// Nelder-Mead — the classical optimizer loop of the paper's Listing 1
// (calculate_new_parameters).
func Run(ctx context.Context, sched *qrm.Scheduler, device string, h *Hamiltonian, a Ansatz, x0 []float64, opts Options) (*RunResult, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != a.NumParams() {
		return nil, fmt.Errorf("vqe: x0 has %d params, ansatz wants %d", len(x0), a.NumParams())
	}
	if opts.Shots <= 0 {
		opts.Shots = 512
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 150
	}
	if opts.InitStep <= 0 {
		opts.InitStep = 0.4
	}
	est := &Estimator{QRM: sched, Device: device, Shots: opts.Shots}
	res := &RunResult{}
	best := 1e18
	objective := func(x []float64) float64 {
		e, _, err := est.Energy(ctx, h, a, x)
		if err != nil {
			// Penalize invalid parameter regions instead of aborting the
			// simplex; construction errors come from amplitude clipping.
			return 1e9
		}
		res.Evals++
		if e < best {
			best = e
		}
		res.Trace = append(res.Trace, best)
		return e
	}
	x, fv, _ := optctl.NelderMead(objective, x0, optctl.NelderMeadOptions{
		MaxEvals: opts.MaxEvals, InitStep: opts.InitStep, Tol: 1e-6,
	})
	res.Params = x
	res.Energy = fv
	// Record the optimum's schedule duration with a fresh evaluation.
	if _, dur, err := est.Energy(ctx, h, a, x); err == nil {
		res.ScheduleSeconds = dur
	}
	return res, nil
}
