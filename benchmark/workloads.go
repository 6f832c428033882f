package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

// workload is one closed-loop job mix: callers goroutines each issue the
// next operation only after the previous one returned.
type workload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json repeats it).
	why       string
	callers   int
	jobsPerOp int
	// warmup is the fixed number of operations set-up runs before the
	// window, so work a change moves into warm-up shows in setup_s.
	warmup int
	// timerBound marks a workload whose service time is a timer, which does
	// not slow down with the machine: its times are reported as measured,
	// not scaled by the yardstick.
	timerBound bool
	// build constructs the devices, stack and inputs, without warm-up.
	build func(in *inputs) (*instance, error)
}

// newYardstick returns the yardstick w's times are scaled by, nil for none.
func (w *workload) newYardstick() *yardstick {
	if w.timerBound {
		return nil
	}
	return newYardstick()
}

// instance is one built workload.
type instance struct {
	// cl is the client whose cache and scheduler counters the traced run
	// reads.
	cl *client.Client
	// op runs operation number i and checks its result; with traced set it
	// also returns the timelines of the jobs it ran.
	op func(ctx context.Context, i int, traced bool) ([]*telemetry.Timeline, error)
	// check runs the workload's reference programs on this (fresh)
	// instance, compares them with verify.go's references and returns the
	// counts it saw, so that two fresh instances can be compared.
	check func(ctx context.Context) (string, error)
	close func()
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []*workload{
	{name: "cached_job", callers: 1, jobsPerOp: 1, warmup: 512, build: buildCachedJob,
		why: "one cached X+Measure job per qpi.Run on tiny-1: simulation is microseconds, so the operation is the per-job fixed cost"},
	{name: "cold_compile", callers: 1, jobsPerOp: 1, warmup: 256, build: buildColdCompile,
		why: "8192 distinct seeded 2-qubit kernels at 1 shot: every job misses the lowering cache, so the compiler does most of the work"},
	{name: "bound_sweep", callers: 1, jobsPerOp: sweepPoints, warmup: 1, build: buildBoundSweep,
		why: "1024-point RXP Rabi template per RunSweep: the deferred-binding path (bind at dispatch, SubmitModule) no other workload touches"},
	{name: "open_shots", callers: 1, jobsPerOp: 1, warmup: 8, build: buildOpenShots,
		why: "4096-shot square-pulse job on sc-2 with 2 shot workers: the trajectory engine and cached propagators do nearly all the work"},
	{name: "shaped_pulse", callers: 1, jobsPerOp: 1, warmup: 8, build: buildShapedPulse,
		why: "64-shot kerneled DRAG/Gaussian job on sc-2: the same simulator used through time-varying envelopes, the density engine and IQ synthesis"},
	{name: "fleet_burst", callers: 1, jobsPerOp: burstJobs, warmup: 4, timerBound: true, build: buildFleetBurst,
		why: "64 cached jobs in flight on a 4-device pool whose service time is a 2 ms sleep: makespan measures placement, heaps and stealing"},
	{name: "remote_job", callers: 2, jobsPerOp: 1, warmup: 512, build: buildRemoteJob,
		why: "two callers sharing one RemoteAdapter connection to an in-process server: the only path over the wire"},
}

// workloadByName resolves a -workload argument.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}

// stack is one client over one driver session.
type stack struct {
	cl  *client.Client
	ses *qdmi.Session
}

// newStack registers the devices with a fresh driver and builds a client.
func newStack(devs ...qdmi.Device) (*stack, error) {
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			return nil, err
		}
	}
	ses := drv.OpenSession()
	return &stack{cl: client.New(ses), ses: ses}, nil
}

func (s *stack) close() {
	s.cl.Close()
	s.ses.Close()
}

// newTinyStack builds a stack over one tiny-N device.
func newTinyStack(name string, sites int, seed int64, coherence float64) (*stack, *devices.SimDevice, error) {
	dev, err := devices.New(tinyConfig(name, sites, seed, coherence))
	if err != nil {
		return nil, nil, err
	}
	st, err := newStack(dev)
	return st, dev, err
}

// newSC2Stack builds a stack over the two-transmon preset.
func newSC2Stack(seed int64) (*stack, *devices.SimDevice, error) {
	dev, err := devices.Superconducting("sc-2", 2, seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := newStack(dev)
	return st, dev, err
}

// runQPI is qpi.Run, or — when the job's timeline is wanted — the
// Start+Wait pair qpi.Run is made of.
func runQPI(ctx context.Context, b qpi.Backend, k *qpi.Circuit, traced bool, opts ...qpi.ExecOption) (*qpi.Result, []*telemetry.Timeline, error) {
	if !traced {
		res, err := qpi.Run(ctx, b, k, opts...)
		return res, nil, err
	}
	h, err := qpi.Start(ctx, b, k, opts...)
	if err != nil {
		return nil, nil, err
	}
	res, err := h.Wait(ctx)
	return res, []*telemetry.Timeline{h.Timeline()}, err
}

// checkCounts is the in-loop result check: the shot total equals the
// request and no bit outside the measured set is raised.
func checkCounts(counts map[uint64]int, shots int, measured uint64) error {
	total := 0
	for mask, n := range counts {
		if mask&^measured != 0 {
			return fmt.Errorf("outcome %b outside measured bits %b", mask, measured)
		}
		total += n
	}
	if total != shots {
		return fmt.Errorf("shot total %d, requested %d", total, shots)
	}
	return nil
}

// checkX compares an X+Measure result with P(1) = readout fidelity and
// returns the counts as the instance fingerprint.
func checkX(what string, counts map[uint64]int, shots int) (string, error) {
	if err := checkCounts(counts, shots, 1); err != nil {
		return "", fmt.Errorf("%s: %w", what, err)
	}
	f := tinyReadoutFidelity
	n := float64(shots)
	return fmt.Sprint(counts), checkCount(what+": ones after X", float64(counts[1]), n*f, n*f*(1-f))
}

// checkShots is the number of shots of the X and random-kernel reference
// programs.
const checkShots = 2048

func buildCachedJob(in *inputs) (*instance, error) {
	st, _, err := newTinyStack("tiny-1", 1, in.devSeed, 1e-3)
	if err != nil {
		return nil, err
	}
	k, err := xKernel()
	if err != nil {
		return nil, err
	}
	ad := &client.NativeAdapter{Client: st.cl, Target: "tiny-1"}
	return &instance{
		cl: st.cl, close: st.close,
		op: func(ctx context.Context, _ int, traced bool) ([]*telemetry.Timeline, error) {
			res, tls, err := runQPI(ctx, ad, k, traced, qpi.WithShots(16))
			if err != nil {
				return nil, err
			}
			return tls, checkCounts(res.Counts, 16, 1)
		},
		check: func(ctx context.Context) (string, error) {
			res, err := qpi.Run(ctx, ad, k, qpi.WithShots(checkShots))
			if err != nil {
				return "", err
			}
			return checkX("cached_job", res.Counts, checkShots)
		},
	}, nil
}

func buildColdCompile(in *inputs) (*instance, error) {
	st, _, err := newTinyStack("tiny-2", 2, in.devSeed, 0)
	if err != nil {
		return nil, err
	}
	ad := &client.NativeAdapter{Client: st.cl, Target: "tiny-2"}
	return &instance{
		cl: st.cl, close: st.close,
		op: func(ctx context.Context, i int, traced bool) ([]*telemetry.Timeline, error) {
			i %= coldKernels
			k, err := buildKernel(fmt.Sprintf("cold_%d", i), in.cold[i])
			if err != nil {
				return nil, err
			}
			res, tls, err := runQPI(ctx, ad, k, traced, qpi.WithShots(1))
			if err != nil {
				return nil, err
			}
			return tls, checkCounts(res.Counts, 1, 3)
		},
		check: func(ctx context.Context) (string, error) {
			const sampled = 32
			// Shot noise is the only allowed source of distance: the
			// readout error is already in the reference distribution.
			bound := tvBound(4, checkShots, 1e-9)
			fp := ""
			for n := 0; n < sampled; n++ {
				i := n * (coldKernels / sampled)
				k, err := buildKernel(fmt.Sprintf("check_%d", i), in.cold[i])
				if err != nil {
					return "", err
				}
				res, err := qpi.Run(ctx, ad, k, qpi.WithShots(checkShots))
				if err != nil {
					return "", err
				}
				if err := checkCounts(res.Counts, checkShots, 3); err != nil {
					return "", fmt.Errorf("cold_compile kernel %d: %w", i, err)
				}
				want := withReadoutError(idealProbs(in.cold[i]), tinyReadoutFidelity)
				if tv := tvDistance(res.Counts, checkShots, want); tv > bound {
					return "", fmt.Errorf("cold_compile kernel %d: total-variation distance %.4f from the ideal interpreter exceeds %.4f", i, tv, bound)
				}
				fp += fmt.Sprint(res.Counts)
			}
			return fp, nil
		},
	}, nil
}

func buildBoundSweep(in *inputs) (*instance, error) {
	st, _, err := newTinyStack("tiny-1", 1, in.devSeed, 1e-3)
	if err != nil {
		return nil, err
	}
	tpl, bindings, err := sweepTemplate(in)
	if err != nil {
		return nil, err
	}
	const shots = 16
	opts := client.SubmitOptions{Shots: shots}
	// sweep runs one 1024-point sweep and returns each point's counts.
	sweep := func(ctx context.Context, traced bool) ([]map[uint64]int, []*telemetry.Timeline, error) {
		counts := make([]map[uint64]int, len(bindings))
		if !traced {
			results, err := st.cl.RunSweep(ctx, tpl, "tiny-1", bindings, opts)
			if err != nil {
				return nil, nil, err
			}
			for i, r := range results {
				if r.Err != nil {
					return nil, nil, fmt.Errorf("point %d: %w", i, r.Err)
				}
				counts[i] = r.Result.Counts
			}
			return counts, nil, nil
		}
		// RunSweep hides the tickets; its two halves expose the timelines.
		tickets, errs := st.cl.SubmitSweepCtx(ctx, tpl, "tiny-1", bindings, opts)
		tls := make([]*telemetry.Timeline, len(tickets))
		for i, tk := range tickets {
			if tk == nil {
				return nil, nil, fmt.Errorf("point %d: %w", i, errs[i])
			}
			res, err := tk.Wait(ctx)
			if err != nil {
				return nil, nil, fmt.Errorf("point %d: %w", i, err)
			}
			counts[i], tls[i] = res.Counts, tk.Timeline()
		}
		return counts, tls, nil
	}
	return &instance{
		cl: st.cl, close: st.close,
		op: func(ctx context.Context, _ int, traced bool) ([]*telemetry.Timeline, error) {
			counts, tls, err := sweep(ctx, traced)
			if err != nil {
				return nil, err
			}
			for i, c := range counts {
				if err := checkCounts(c, shots, 1); err != nil {
					return nil, fmt.Errorf("point %d: %w", i, err)
				}
			}
			return tls, nil
		},
		check: func(ctx context.Context) (string, error) {
			counts, _, err := sweep(ctx, false)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(counts), checkRabi(in.angles, counts, shots)
		},
	}, nil
}

// sweepTemplate builds the RXP(theta) Rabi template and the seed's sweep
// points.
func sweepTemplate(in *inputs) (*ptemplate.Template, []ptemplate.Bindings, error) {
	k := qpi.NewCircuit("rabi_sweep", 1, 1).RXP(0, qpi.Sym("theta")).Measure(0, 0)
	if err := k.End(); err != nil {
		return nil, nil, err
	}
	tpl, err := ptemplate.New(k, ptemplate.Param{Name: "theta", Min: minSweepAngle, Max: math.Pi})
	if err != nil {
		return nil, nil, err
	}
	bindings := make([]ptemplate.Bindings, len(in.angles))
	for i, theta := range in.angles {
		bindings[i] = ptemplate.Bindings{"theta": theta}
	}
	return tpl, bindings, nil
}

// checkRabi compares a sweep with P(1)(θ) = sin²(θ/2): the points are
// sorted by angle and cut into 16 bins, and each bin's count of ones must
// lie within the binomial bound around the sum of its points' analytic
// probabilities.
func checkRabi(angles []float64, counts []map[uint64]int, shots int) error {
	order := make([]int, len(angles))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return angles[order[a]] < angles[order[b]] })
	const bins = 16
	per := len(order) / bins
	for b := 0; b < bins; b++ {
		var ones, mean, variance float64
		for _, i := range order[b*per : (b+1)*per] {
			p := rabiP1(angles[i], tinyReadoutFidelity)
			ones += float64(counts[i][1])
			mean += float64(shots) * p
			variance += float64(shots) * p * (1 - p)
		}
		if err := checkCount(fmt.Sprintf("bound_sweep: ones in angle bin %d", b), ones, mean, variance); err != nil {
			return err
		}
	}
	return nil
}

// squareKernel mirrors experiments.ShotBenchRig through the qpi builder: a
// 256-sample constant play on both drives and the coupler, a barrier, a
// 256-sample idle gap and one capture per site.
func squareKernel() (*qpi.Circuit, error) {
	k := qpi.NewCircuit("square_shots", 2, 2).
		WaveformEnvelope("square", waveform.Constant{Amplitude: 0.5}, 256).
		PlayWaveform("q0-drive", "square").
		PlayWaveform("q1-drive", "square").
		PlayWaveform("q0q1-coupler", "square").
		Barrier().
		Delay("q0-drive", 256).
		Measure(0, 0).Measure(1, 1)
	return k, k.End()
}

// selfCheckedJob wraps a one-job operation that has no analytic reference:
// run checks the result's shape itself, and the reference check is that two
// fresh stacks return the same counts and IQ records.
func selfCheckedJob(st *stack, run func(ctx context.Context, traced bool) (*qpi.Result, []*telemetry.Timeline, error)) *instance {
	return &instance{
		cl: st.cl, close: st.close,
		op: func(ctx context.Context, _ int, traced bool) ([]*telemetry.Timeline, error) {
			_, tls, err := run(ctx, traced)
			return tls, err
		},
		check: func(ctx context.Context) (string, error) {
			res, _, err := run(ctx, false)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(res.Counts, res.IQ), nil
		},
	}
}

func buildOpenShots(in *inputs) (*instance, error) {
	st, _, err := newSC2Stack(in.devSeed)
	if err != nil {
		return nil, err
	}
	k, err := squareKernel()
	if err != nil {
		return nil, err
	}
	ad := &client.NativeAdapter{Client: st.cl, Target: "sc-2"}
	const shots = 4096
	run := func(ctx context.Context, traced bool) (*qpi.Result, []*telemetry.Timeline, error) {
		// Two shot workers is a constant of the workload, not nproc, so
		// the engine choice does not change with the machine.
		res, tls, err := runQPI(ctx, ad, k, traced, qpi.WithShots(shots), qpi.WithShotWorkers(2))
		if err != nil {
			return nil, nil, err
		}
		return res, tls, checkCounts(res.Counts, shots, 3)
	}
	return selfCheckedJob(st, run), nil
}

func buildShapedPulse(in *inputs) (*instance, error) {
	st, dev, err := newSC2Stack(in.devSeed)
	if err != nil {
		return nil, err
	}
	k := experiments.PulseKernel(dev)
	ad := &client.NativeAdapter{Client: st.cl, Target: "sc-2"}
	const shots = 64
	run := func(ctx context.Context, traced bool) (*qpi.Result, []*telemetry.Timeline, error) {
		res, tls, err := runQPI(ctx, ad, k, traced, qpi.WithShots(shots), qpi.WithMeasLevel(qpi.MeasKerneled))
		if err != nil {
			return nil, nil, err
		}
		if err := checkCounts(res.Counts, shots, 3); err != nil {
			return nil, nil, err
		}
		if len(res.IQ) != shots || len(res.Bits) != 2 {
			return nil, nil, fmt.Errorf("%d IQ rows over %d captures, want %d over 2", len(res.IQ), len(res.Bits), shots)
		}
		for _, row := range res.IQ {
			if len(row) != 2 {
				return nil, nil, fmt.Errorf("IQ row with %d points, want 2", len(row))
			}
		}
		return res, tls, nil
	}
	return selfCheckedJob(st, run), nil
}

// fleetOverhead is the per-job service time of every fleet member; the
// ideal makespan of a burst is burstJobs × fleetOverhead ÷ fleetMembers.
const fleetOverhead = 2 * time.Millisecond

func buildFleetBurst(in *inputs) (*instance, error) {
	names := make([]string, fleetMembers)
	devs := make([]qdmi.Device, fleetMembers)
	for i := range devs {
		names[i] = fmt.Sprintf("fleet-%d", i)
		dev, err := devices.New(tinyConfig(names[i], 1, in.devSeed+int64(i), 1e-3))
		if err != nil {
			return nil, err
		}
		dev.SetJobOverhead(fleetOverhead)
		devs[i] = dev
	}
	st, err := newStack(devs...)
	if err != nil {
		return nil, err
	}
	if err := st.cl.QRM().RegisterPool("fleet", names...); err != nil {
		st.close()
		return nil, err
	}
	k, err := xKernel()
	if err != nil {
		return nil, err
	}
	const shots = 16
	burst := func(ctx context.Context) ([]*telemetry.Timeline, error) {
		tickets := make([]*qrm.Ticket, burstJobs)
		for j := range tickets {
			opts := client.SubmitOptions{Shots: shots, Priority: in.prios[j], Pool: "fleet"}
			if j%burstDirectEvery == 0 {
				opts.Pool = "" // queued on member 0 alone, so siblings must steal it
			}
			tk, err := st.cl.SubmitCtx(ctx, k, names[0], opts)
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", j, err)
			}
			tickets[j] = tk
		}
		tls := make([]*telemetry.Timeline, burstJobs)
		for j, tk := range tickets {
			res, err := tk.Wait(ctx)
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", j, err)
			}
			if err := checkCounts(res.Counts, shots, 1); err != nil {
				return nil, fmt.Errorf("job %d: %w", j, err)
			}
			tls[j] = tk.Timeline()
		}
		return tls, nil
	}
	return &instance{
		cl: st.cl, close: st.close,
		op: func(ctx context.Context, _ int, _ bool) ([]*telemetry.Timeline, error) { return burst(ctx) },
		check: func(ctx context.Context) (string, error) {
			// Placement of pool jobs is a race, so only jobs that name
			// their device enter the fingerprint; one at a time, nothing is
			// queued for a sibling to steal.
			fp := ""
			for _, name := range names {
				res, err := st.cl.RunCtx(ctx, k, name, client.SubmitOptions{Shots: checkShots})
				if err != nil {
					return "", err
				}
				s, err := checkX("fleet_burst "+name, res.Counts, checkShots)
				if err != nil {
					return "", err
				}
				fp += s
			}
			_, err := burst(ctx)
			return fp, err
		},
	}, nil
}

// remoteRig is a tiny-1 stack served over loopback TCP plus the compiled
// X+Measure payload remote callers submit.
type remoteRig struct {
	st      *stack
	srv     *client.Server
	payload []byte
	format  qdmi.ProgramFormat
	// opts carries the shot count and the calibration epoch the payload
	// was compiled at, so the server's staleness check runs.
	opts client.SubmitOptions
}

func newRemoteRig(in *inputs) (*remoteRig, error) {
	st, dev, err := newTinyStack("tiny-1", 1, in.devSeed, 1e-3)
	if err != nil {
		return nil, err
	}
	k, err := xKernel()
	if err != nil {
		return nil, err
	}
	r := &remoteRig{st: st}
	if r.payload, r.format, err = st.cl.Compile(k, "tiny-1"); err != nil {
		st.close()
		return nil, err
	}
	epoch, err := qdmi.QueryCalibrationEpoch(dev)
	if err != nil {
		st.close()
		return nil, err
	}
	r.opts = client.SubmitOptions{Shots: 16, CalibrationEpoch: epoch}
	if r.srv, err = client.NewServer(st.cl, "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	return r, nil
}

func (r *remoteRig) close() {
	r.srv.Close()
	r.st.close()
}

func buildRemoteJob(in *inputs) (*instance, error) {
	rig, err := newRemoteRig(in)
	if err != nil {
		return nil, err
	}
	ad, err := client.NewRemoteAdapter(rig.srv.Addr())
	if err != nil {
		rig.close()
		return nil, err
	}
	return &instance{
		cl: rig.st.cl,
		close: func() {
			ad.Close()
			rig.close()
		},
		op: func(ctx context.Context, _ int, traced bool) ([]*telemetry.Timeline, error) {
			opts := rig.opts
			var tls []*telemetry.Timeline
			if traced {
				opts.Timeline = telemetry.NewTimeline("", nil)
				tls = []*telemetry.Timeline{opts.Timeline}
			}
			res, err := ad.SubmitPayloadCtx(ctx, "tiny-1", rig.payload, rig.format, opts)
			if err != nil {
				return nil, err
			}
			return tls, checkCounts(res.Counts, opts.Shots, 1)
		},
		check: func(ctx context.Context) (string, error) {
			opts := rig.opts
			opts.Shots = checkShots
			res, err := ad.SubmitPayloadCtx(ctx, "tiny-1", rig.payload, rig.format, opts)
			if err != nil {
				return "", err
			}
			return checkX("remote_job", res.Counts, checkShots)
		},
	}, nil
}
