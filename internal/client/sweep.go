package client

import (
	"context"
	"fmt"
	"strconv"

	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
)

// SubmitSweepCtx enqueues one job per sweep point: the template lowers at
// most once (served cache-hot afterwards, see CompileTemplate) and each
// point ships as a (compiled template, bindings) pair that is bound at
// dispatch time — after the calibration-epoch gate — by the device, into the
// template it prepared once (see qdmi.ModuleSubmitter). The returned
// slices are parallel to bindings; a point with an out-of-range or
// non-finite value fails in place with ptemplate.ErrBadParam before
// reaching the scheduler queue, without sinking its siblings.
func (c *Client) SubmitSweepCtx(ctx context.Context, t *ptemplate.Template, device string,
	bindings []ptemplate.Bindings, opts SubmitOptions) ([]*qrm.Ticket, []error) {

	tickets := make([]*qrm.Ticket, len(bindings))
	errs := make([]error, len(bindings))
	target, err := c.qrm.CompileTarget(device, opts.Pool)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return tickets, errs
	}
	// One trace ID spans the sweep; each point gets its own timeline under
	// a /p<i> suffix so per-point stage latencies stay separable while the
	// fleet histograms see every point.
	sweepTrace := opts.TraceID
	if sweepTrace == "" {
		sweepTrace = telemetry.NewTraceID()
	}
	id := append([]byte(sweepTrace), "/p"...) // the digits go in its spare capacity
	key := cacheKey{target, t.Key()}
	for i, b := range bindings {
		// Per-point lookup: point 0 compiles, the rest bind. Going through
		// the cache each iteration (rather than hoisting one compile) keeps a
		// mid-sweep recalibration from dispatching stale points — the
		// lookup probes the device's epoch, and an invalidated entry
		// recompiles at the new one.
		tl := telemetry.NewTimeline(string(strconv.AppendInt(id, int64(i), 10)), c.telem)
		program, err := c.lowerTraced(ctx, key, t.Circuit(), t.Params(), tl)
		if err != nil {
			errs[i] = err
			continue
		}
		tickets[i], errs[i] = c.enqueue(ctx, program, b, device, opts, tl)
	}
	return tickets, errs
}

// RunSweep submits every sweep point and waits for all of them — the
// synchronous calibration-loop entry point (Rabi, Ramsey, DRAG tune-ups).
// The result slice is parallel to bindings; per-point failures (including
// ptemplate.ErrBadParam validation rejections) surface in place.
func (c *Client) RunSweep(ctx context.Context, t *ptemplate.Template, device string,
	bindings []ptemplate.Bindings, opts SubmitOptions) ([]BatchResult, error) {

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: sweep: %w", err)
	}
	tickets, errs := c.SubmitSweepCtx(ctx, t, device, bindings, opts)
	return waitAll(ctx, tickets, errs), nil
}
