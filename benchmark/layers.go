package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mqsspulse/internal/client"
	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/qrm"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

// This file turns a traced run into per-layer metrics. Every layer is
// measured from outside: by timing calls into its public functions, and by
// reading the timeline each job already returns.

// windowLayerMetrics derives the workload's own layer metrics from its
// untraced and traced windows, the spans the recorder kept and the
// client's cache counters either side of the traced window.
func windowLayerMetrics(w *workload, untraced, traced *window, spans []span, before, after client.CacheStats, m map[string]float64) {
	ms := untraced.opMillis()
	m["qpi.op_ms_p90"] = percentile(ms, supportedTail(0.90, len(ms)))
	m["qpi.op_ms_p99"] = percentile(ms, supportedTail(0.99, len(ms)))
	m["bench.trace_overhead_ratio"] = percentile(traced.opMillis(), 0.5) / percentile(ms, 0.5)

	// Binds are template lookups served from the cache, so they are hits.
	hits := float64(after.Hits - before.Hits + after.Binds - before.Binds)
	lookups := hits + float64(after.Misses-before.Misses)
	m["client.cache_hit_ratio"] = 0 // no lookup in the window (remote_job compiles once, in set-up)
	if lookups > 0 {
		m["client.cache_hit_ratio"] = hits / lookups
	}
	m["client.cache_evictions"] = float64(after.Evictions - before.Evictions)

	// A stage's share is its self time over all self time recorded, the
	// operations' own (the unattributed remainder) included. With one job
	// at a time that is its share of the operation's wall time; where jobs
	// of one operation overlap it is its share of the job-seconds.
	self := selfTimes(spans)
	byStage := map[telemetry.Stage]time.Duration{}
	var total, unattributed time.Duration
	var queueWaits []float64
	for _, s := range spans {
		d := self[s.ID]
		total += d
		if s.Parent == 0 {
			unattributed += d
		} else {
			byStage[telemetry.Stage(s.Name)] += d
		}
		if s.Name == string(telemetry.StageQueueWait) {
			queueWaits = append(queueWaits, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	for stage, name := range timelineStages {
		m[name] = float64(byStage[stage]) / float64(total)
	}
	m["timeline.unattributed_share"] = float64(unattributed) / float64(total)
	jobs := len(traced.ops) * w.jobsPerOp
	m["telemetry.spans_per_job"] = float64(len(spans)-len(traced.ops)) / float64(jobs)
	m["qrm.queue_wait_ms_p50"] = median(queueWaits)
}

// allocsPer returns the mean number of heap allocations of n calls of f.
func allocsPer(n int, f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// runProbes measures each module through its public functions on inputs
// drawn from the seed. The probes run one after another on an otherwise
// idle process.
func runProbes(ctx context.Context, in *inputs, m map[string]float64) error {
	for _, probe := range []func(context.Context, *inputs, map[string]float64) error{
		probeCompiler, probeClient, probeTemplate, probeDevice, probeScheduler,
		probeFleet, probeSimulator, probeReadout, probeTelemetry, probeRemote,
	} {
		if err := probe(ctx, in, m); err != nil {
			return err
		}
	}
	return nil
}

// probeCompiler times the qpi builder and the compiler's stages on a
// sample of the cold_compile kernels, against a query-counting proxy of
// tiny-2.
func probeCompiler(_ context.Context, in *inputs, m map[string]float64) error {
	dev, err := devices.New(tinyConfig("tiny-2", 2, in.devSeed, 0))
	if err != nil {
		return err
	}
	proxy := &countingDevice{Device: dev}
	const sampled = 64
	gates := make([][]gate, sampled)
	for n := range gates {
		gates[n] = in.cold[n*(coldKernels/sampled)]
	}
	i := 0
	if m["qpi.build_us"], err = timeIt(8*sampled, time.Microsecond, func() error {
		_, err := buildKernel("probe", gates[i%sampled])
		i++
		return err
	}); err != nil {
		return err
	}
	var compile, frontend, midend, backend time.Duration
	var bytes, ops int
	perPass := map[string]time.Duration{}
	for _, g := range gates {
		k, err := buildKernel("probe", g)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := compiler.Compile(k, proxy)
		if err != nil {
			return err
		}
		compile += time.Since(t0)
		bytes += len(res.Payload)
		ops += res.MLIR.OpCount()
		for _, p := range res.Timings.Passes {
			perPass[p.Pass] += p.Duration
		}
	}
	m["compiler.qdmi_queries"] = float64(proxy.queries.Load()) / sampled
	// The same kernels again, each stage called on its own.
	for _, g := range gates {
		k, err := buildKernel("probe", g)
		if err != nil {
			return err
		}
		t0 := time.Now()
		mod, err := compiler.Frontend(k, proxy)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := passes.DefaultPipeline().Run(mod, passes.NewContext(proxy)); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := compiler.Backend(mod, proxy); err != nil {
			return err
		}
		frontend += t1.Sub(t0)
		midend += t2.Sub(t1)
		backend += time.Since(t2)
	}
	us := func(d time.Duration) float64 { return float64(d) / sampled / float64(time.Microsecond) }
	m["compiler.compile_us"] = us(compile)
	m["compiler.frontend_us"] = us(frontend)
	m["compiler.passes_us"] = us(midend)
	m["compiler.backend_us"] = us(backend)
	for _, p := range passes.DefaultPipeline().Passes() {
		m["compiler.pass_us."+p] = us(perPass[p])
	}
	m["compiler.payload_bytes"] = float64(bytes) / sampled
	m["compiler.mlir_ops_out"] = float64(ops) / sampled
	return nil
}

// probeClient times a lowering-cache hit and the part of a submission the
// caller is blocked for.
func probeClient(ctx context.Context, in *inputs, m map[string]float64) error {
	st, _, err := newTinyStack("tiny-1", 1, in.devSeed, 1e-3)
	if err != nil {
		return err
	}
	defer st.close()
	k, err := xKernel()
	if err != nil {
		return err
	}
	if _, _, err := st.cl.Compile(k, "tiny-1"); err != nil {
		return err
	}
	if m["client.compile_hit_us"], err = timeIt(4096, time.Microsecond, func() error {
		_, _, err := st.cl.Compile(k, "tiny-1")
		return err
	}); err != nil {
		return err
	}
	const n = 512
	var blocked time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		tk, err := st.cl.SubmitCtx(ctx, k, "tiny-1", client.SubmitOptions{Shots: 16})
		if err != nil {
			return err
		}
		blocked += time.Since(t0)
		if _, err := tk.Wait(ctx); err != nil {
			return err
		}
	}
	m["client.submit_us"] = float64(blocked) / n / float64(time.Microsecond)
	return nil
}

// probeTemplate times lowering the Rabi template and binding its points.
func probeTemplate(_ context.Context, in *inputs, m map[string]float64) error {
	dev, err := devices.New(tinyConfig("tiny-1", 1, in.devSeed, 1e-3))
	if err != nil {
		return err
	}
	tpl, bindings, err := sweepTemplate(in)
	if err != nil {
		return err
	}
	var compiled *ptemplate.Compiled
	if m["ptemplate.lower_us"], err = timeIt(64, time.Microsecond, func() error {
		compiled, err = ptemplate.Lower(tpl, dev, "tiny-1")
		return err
	}); err != nil {
		return err
	}
	i := 0
	bind := func() error {
		_, err := compiled.Bind(bindings[i%len(bindings)])
		i++
		return err
	}
	if m["ptemplate.bind_us"], err = timeIt(4*sweepPoints, time.Microsecond, bind); err != nil {
		return err
	}
	m["ptemplate.bind_allocs"], err = allocsPer(sweepPoints, bind)
	return err
}

// probeDevice times what tiny-1 does with the cached X+Measure payload —
// parse, link, resolve, then whole jobs with no client or scheduler in
// front — and the QDMI queries the compiler makes.
func probeDevice(ctx context.Context, in *inputs, m map[string]float64) error {
	dev, err := devices.New(tinyConfig("tiny-1", 1, in.devSeed, 1e-3))
	if err != nil {
		return err
	}
	k, err := xKernel()
	if err != nil {
		return err
	}
	res, err := compiler.Compile(k, dev)
	if err != nil {
		return err
	}
	text, format := string(res.Payload), compiler.FormatFor(res.QIR)
	const n = 1024
	var mod *qir.Module
	if m["qir.parse_us"], err = timeIt(n, time.Microsecond, func() error {
		mod, err = qir.ParseModule(text)
		return err
	}); err != nil {
		return err
	}
	sched, err := dev.BuildScheduleForPayload(mod)
	if err != nil {
		return err
	}
	if m["qir.link_us"], err = timeIt(n, time.Microsecond, func() error {
		_, err := dev.BuildScheduleForPayload(mod)
		return err
	}); err != nil {
		return err
	}
	if m["pulse.resolve_us"], err = timeIt(n, time.Microsecond, func() error {
		_, err := sched.Resolve()
		return err
	}); err != nil {
		return err
	}
	opts := qdmi.JobOptions{Shots: 16}
	payloadJob := func() error {
		job, err := dev.SubmitJobOpts(res.Payload, format, opts)
		if err != nil {
			return err
		}
		_, err = waitJob(ctx, job)
		return err
	}
	if m["devices.job_us"], err = timeIt(n, time.Microsecond, payloadJob); err != nil {
		return err
	}
	if m["devices.job_allocs"], err = allocsPer(n, payloadJob); err != nil {
		return err
	}
	if m["devices.module_job_us"], err = timeIt(n, time.Microsecond, func() error {
		job, err := dev.SubmitModule(res.QIR, opts)
		if err != nil {
			return err
		}
		_, err = waitJob(ctx, job)
		return err
	}); err != nil {
		return err
	}
	queries := []func() error{
		func() error { _, err := dev.QueryDeviceProperty(qdmi.DevicePropSampleRateHz); return err },
		func() error { _, err := dev.QuerySiteProperty(0, qdmi.SitePropFrequencyHz); return err },
		func() error { _, err := dev.DefaultPulse("x", []int{0}); return err },
	}
	i := 0
	m["qdmi.query_ns"], err = timeIt(30000, time.Nanosecond, func() error {
		i++
		return queries[i%len(queries)]()
	})
	return err
}

// probeScheduler times a scheduler round trip to a device that finishes at
// once: submit, queue, dispatch, wake the waiter.
func probeScheduler(ctx context.Context, _ *inputs, m map[string]float64) error {
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(stubDevice{name: "stub"}); err != nil {
		return err
	}
	ses := drv.OpenSession()
	defer ses.Close()
	sched := qrm.New(ses)
	defer sched.Close()
	req := qrm.Request{Device: "stub", Payload: []byte("stub"), Format: qdmi.FormatQIRBase, Shots: 1}
	var err error
	m["qrm.roundtrip_us"], err = timeIt(4096, time.Microsecond, func() error {
		tk, err := sched.SubmitCtx(ctx, req)
		if err != nil {
			return err
		}
		_, err = tk.Wait(ctx)
		return err
	})
	return err
}

// probeFleet runs fleet_burst's bursts on a pool of its own and reads the
// scheduler's counters either side.
func probeFleet(ctx context.Context, in *inputs, m map[string]float64) error {
	inst, err := buildFleetBurst(in)
	if err != nil {
		return err
	}
	defer inst.close()
	if _, err := inst.op(ctx, 0, false); err != nil { // compile, start the workers
		return err
	}
	const bursts = 8
	before := inst.cl.QRM().Stats()
	makespans := make([]float64, bursts)
	for b := range makespans {
		t0 := time.Now()
		if _, err := inst.op(ctx, b, false); err != nil {
			return err
		}
		makespans[b] = time.Since(t0).Seconds()
	}
	after := inst.cl.QRM().Stats()
	ideal := float64(burstJobs) * fleetOverhead.Seconds() / fleetMembers
	m["qrm.sched_efficiency"] = ideal / median(makespans)
	m["qrm.steals_per_burst"] = float64(after.Steals-before.Steals) / bursts
	var placed []float64
	for name, d := range after.Devices {
		placed = append(placed, float64(d.Dispatched-before.Devices[name].Dispatched))
	}
	lo, hi := minMax(placed)
	m["qrm.placement_spread"] = (hi - lo) / (float64(bursts*burstJobs) / fleetMembers)
	return nil
}

// probeSimulator runs the simulator alone on the two rigs that share
// sc-2's dimensions and structure: experiments.ShotBenchRig (square
// pulses; trajectories on 2 workers as open_shots, then serially on the
// density engine for the readout share) and experiments.EvolveBenchRig
// (Gaussian pulses on the density engine, as shaped_pulse).
func probeSimulator(_ context.Context, in *inputs, m map[string]float64) error {
	ex, sp, err := experiments.ShotBenchRig()
	if err != nil {
		return err
	}
	const shots, reps = 4096, 6
	var last *simq.ExecResult
	traj := func() error {
		last, err = ex.Run(sp, simq.ExecOptions{Shots: shots, Seed: in.devSeed, ShotWorkers: 2})
		return err
	}
	if err := traj(); err != nil { // fills the propagator cache
		return err
	}
	t0 := time.Now()
	var busy time.Duration
	for r := 0; r < reps; r++ {
		if err := traj(); err != nil {
			return err
		}
		for _, b := range last.WorkerBusy {
			busy += b
		}
	}
	wall := time.Since(t0)
	m["simq.run_ms"] = float64(wall) / reps / float64(time.Millisecond)
	m["simq.shots_per_s"] = shots * reps / wall.Seconds()
	m["simq.worker_busy_share"] = float64(busy) / (float64(wall) * float64(last.Workers))
	if m["simq.run_allocs"], err = allocsPer(reps, traj); err != nil {
		return err
	}

	t0 = time.Now()
	serial, err := ex.Run(sp, simq.ExecOptions{Shots: shots, Seed: in.devSeed, ShotWorkers: 1})
	if err != nil {
		return err
	}
	m["simq.readout_wall_share"] = float64(serial.ReadoutWall) / float64(time.Since(t0))

	dims := []int{3, 3}
	collapses := append(simq.RelaxationCollapses(dims, 0, 25e-6, 18e-6), simq.RelaxationCollapses(dims, 1, 30e-6, 21e-6)...)
	dex, dsp, err := experiments.EvolveBenchRig(waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 256, collapses)
	if err != nil {
		return err
	}
	m["simq.density_run_ms"], err = timeIt(reps, time.Millisecond, func() error {
		_, err := dex.Run(dsp, simq.ExecOptions{Shots: 64, Seed: in.devSeed})
		return err
	})
	return err
}

// probeReadout times integration and discrimination on the records a
// raw-level shaped-pulse job returned from sc-2.
func probeReadout(ctx context.Context, in *inputs, m map[string]float64) error {
	dev, err := devices.Superconducting("sc-2", 2, in.devSeed)
	if err != nil {
		return err
	}
	res, err := compiler.Compile(experiments.PulseKernel(dev), dev)
	if err != nil {
		return err
	}
	job, err := dev.SubmitJobOpts(res.Payload, compiler.FormatFor(res.QIR), qdmi.JobOptions{Shots: 64, MeasLevel: readout.LevelRaw})
	if err != nil {
		return err
	}
	rec, err := waitJob(ctx, job)
	if err != nil {
		return err
	}
	var points []readout.IQ
	samples := 0
	for s, shot := range rec.Raw {
		points = append(points, rec.IQ[s]...)
		for _, trace := range shot {
			samples += len(trace)
		}
	}
	if samples == 0 || len(points) == 0 {
		return fmt.Errorf("benchmark: raw job returned %d samples and %d IQ points", samples, len(points))
	}
	const reps = 256
	perPass, err := timeIt(reps, time.Nanosecond, func() error {
		for _, shot := range rec.Raw {
			for _, trace := range shot {
				readout.Boxcar{}.Integrate(trace)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["readout.integrate_ns_per_sample"] = perPass / float64(samples)
	// The simulator's clouds sit either side of I = 0.
	midpoint := &readout.Centroid{Mean0: readout.IQ{I: -1}, Mean1: readout.IQ{I: 1}}
	perPass, err = timeIt(reps, time.Nanosecond, func() error {
		readout.DiscriminateAll(midpoint, points)
		return nil
	})
	m["readout.discriminate_ns_per_shot"] = perPass / float64(len(points))
	return err
}

// probeTelemetry times recording one span into a timeline that feeds a
// registry, eight spans to a timeline as a job's trace has.
func probeTelemetry(_ context.Context, _ *inputs, m map[string]float64) error {
	reg := telemetry.NewRegistry()
	var tl *telemetry.Timeline
	i := 0
	var err error
	m["telemetry.span_record_ns"], err = timeIt(1<<16, time.Nanosecond, func() error {
		if i%8 == 0 {
			tl = telemetry.NewTimeline("probe", reg)
		}
		i++
		tl.Record(telemetry.StageDispatch, "probe", time.Time{}, time.Microsecond, 0)
		return nil
	})
	return err
}

// probeRemote measures the wire: a round trip that runs no job, the
// remote path's median over the local scheduler's on the same payload, and
// — through a byte-counting relay — the size of a request and a response.
func probeRemote(ctx context.Context, in *inputs, m map[string]float64) error {
	rig, err := newRemoteRig(in)
	if err != nil {
		return err
	}
	defer rig.close()
	direct, err := client.NewRemoteAdapter(rig.srv.Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	const n = 512
	if m["remote.rtt_us"], err = timeIt(n, time.Microsecond, func() error {
		_, err := direct.Telemetry(ctx)
		return err
	}); err != nil {
		return err
	}
	p50 := func(f func() error) (float64, error) {
		us := make([]float64, n)
		for i := range us {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		sort.Float64s(us)
		return percentile(us, 0.5), nil
	}
	remote, err := p50(func() error {
		_, err := direct.SubmitPayloadCtx(ctx, "tiny-1", rig.payload, rig.format, rig.opts)
		return err
	})
	if err != nil {
		return err
	}
	local, err := p50(func() error {
		tk, err := rig.st.cl.QRM().SubmitCtx(ctx, qrm.Request{
			Device: "tiny-1", Payload: rig.payload, Format: rig.format,
			Shots: rig.opts.Shots, CalibrationEpoch: rig.opts.CalibrationEpoch,
		})
		if err != nil {
			return err
		}
		_, err = tk.Wait(ctx)
		return err
	})
	if err != nil {
		return err
	}
	m["remote.overhead_us"] = remote - local

	kerneled := rig.opts
	kerneled.Shots, kerneled.MeasLevel = 256, qpi.MeasKerneled
	if m["remote.iq_resp_ms"], err = timeIt(16, time.Millisecond, func() error {
		_, err := direct.SubmitPayloadCtx(ctx, "tiny-1", rig.payload, rig.format, kerneled)
		return err
	}); err != nil {
		return err
	}

	rl, err := newRelay(rig.srv.Addr())
	if err != nil {
		return err
	}
	defer rl.close()
	relayed, err := client.NewRemoteAdapter(rl.addr())
	if err != nil {
		return err
	}
	defer relayed.Close()
	const jobs = 64
	for i := 0; i < jobs; i++ {
		if _, err := relayed.SubmitPayloadCtx(ctx, "tiny-1", rig.payload, rig.format, rig.opts); err != nil {
			return err
		}
	}
	m["remote.req_bytes"] = float64(rl.reqBytes.Load()) / jobs
	m["remote.resp_bytes"] = float64(rl.respBytes.Load()) / jobs
	return nil
}
