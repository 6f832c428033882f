package vqe

import (
	"context"
	"fmt"

	"mqsspulse/internal/client"
	"mqsspulse/internal/optctl"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qpi"
)

// Estimator measures Hamiltonian expectation values by running ansatz
// kernels on a device, one client job per qubit-wise-commuting measurement
// group: each is lowered through the client's cache and carries its
// calibration epoch and timeline like any other job.
type Estimator struct {
	Client *client.Client
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
		res, err := e.measure(ctx, a, params, g.Basis)
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

// measure runs the ansatz's kernel for one basis: a concrete kernel as a
// job, a template as a one-point sweep.
func (e *Estimator) measure(ctx context.Context, a Ansatz, params []float64, basis string) (*qpi.Result, error) {
	k, tpl, point, err := a.Kernel(params, basis)
	if err != nil {
		return nil, err
	}
	opts := client.SubmitOptions{Shots: e.Shots}
	if tpl == nil {
		return e.Client.RunCtx(ctx, k, e.Device, opts)
	}
	rs, err := e.Client.RunSweep(ctx, tpl, e.Device, []ptemplate.Bindings{point}, opts)
	if err != nil {
		return nil, err
	}
	return rs[0].Result, rs[0].Err
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
// (calculate_new_parameters) — every evaluation a job on device through
// cl. The first evaluation that fails ends the run with its error.
func Run(ctx context.Context, cl *client.Client, device string, h *Hamiltonian, a Ansatz, x0 []float64, opts Options) (*RunResult, error) {
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
	est := &Estimator{Client: cl, Device: device, Shots: opts.Shots}
	res := &RunResult{}
	best := 1e18
	var evalErr error
	objective := func(x []float64) float64 {
		if evalErr != nil {
			return 0 // the run is over: a flat objective winds the simplex down
		}
		e, _, err := est.Energy(ctx, h, a, x)
		if err != nil {
			evalErr = fmt.Errorf("vqe: evaluation %d: %w", res.Evals+1, err)
			return 0
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
	if evalErr != nil {
		return nil, evalErr
	}
	res.Params = x
	res.Energy = fv
	// Record the optimum's schedule duration with a fresh evaluation.
	var err error
	if _, res.ScheduleSeconds, err = est.Energy(ctx, h, a, x); err != nil {
		return nil, fmt.Errorf("vqe: schedule at the optimum: %w", err)
	}
	return res, nil
}
