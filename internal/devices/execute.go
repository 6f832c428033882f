package devices

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/readout"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/telemetry"
	"mqsspulse/internal/waveform"
)

// readoutStimulusRabiHz is the (negligible) coupling assigned to readout
// ports so that user payloads may play readout stimulus waveforms without
// perturbing the qubit state — dispersive readout does not drive
// transitions.
const readoutStimulusRabiHz = 1e3

// binding assembles a payload's qir.DeviceBinding: port handle i maps to the
// device port portNames[i], the remaining ports follow for calibrated
// lowering, and every frame and lowered operation of one link reads cal, so a
// schedule belongs to one epoch whatever recalibrates meanwhile.
func (d *SimDevice) binding(cal *calibration, portNames []string) (*qir.DeviceBinding, error) {
	if err := d.checkPortNames(portNames); err != nil {
		return nil, err
	}
	ports := make([]*pulse.Port, 0, len(d.ports))
	for _, name := range portNames {
		ports = append(ports, d.table.Port(name))
	}
	for _, p := range d.ports {
		if !slices.Contains(portNames, p.ID) {
			ports = append(ports, p)
		}
	}
	return &qir.DeviceBinding{
		Ports:    ports,
		FrameFor: func(portID string) (*pulse.Frame, error) { return d.frameFor(cal, portID) },
		LowerGate: func(s *pulse.Schedule, gate *waveform.Gate, params []float64, qubits []int64) error {
			return d.lowerGate(cal, s, gate, params, qubits)
		},
		LowerMeasure: func(s *pulse.Schedule, qubit, result int64) error {
			return d.play(cal, s, "measure", []int{int(qubit)}, int(result))
		},
	}, nil
}

// checkPortNames is the part of Binding every job pays, prepared or not:
// each name a payload declares is a device port, named once. It allocates
// nothing; a list it accepts is no longer than the port table.
func (d *SimDevice) checkPortNames(portNames []string) error {
	for i, name := range portNames {
		if d.table.Port(name) == nil {
			return fmt.Errorf("%w: payload references unknown port %q", qdmi.ErrInvalidArgument, name)
		}
		if slices.Contains(portNames[:i], name) {
			return fmt.Errorf("%w: payload references port %q twice", qdmi.ErrInvalidArgument, name)
		}
	}
	return nil
}

// frameFor creates the initial carrier frame of a port from the calibration
// table.
func (d *SimDevice) frameFor(cal *calibration, portID string) (*pulse.Frame, error) {
	p := d.table.Port(portID)
	if p == nil {
		return nil, fmt.Errorf("%w: unknown port %q", qdmi.ErrInvalidArgument, portID)
	}
	hz := 0.0 // a coupler's frame has no carrier
	switch p.Kind {
	case pulse.PortDrive:
		hz = cal.freqHz[p.Sites[0]]
	case pulse.PortReadout:
		// Readout carrier; does not influence qubit dynamics.
		hz = d.cfg.Sites[p.Sites[0]].FreqHz
	}
	return pulse.NewFrame(portID+"-frame", hz), nil
}

// lowerGate is the device's calibrated gate→pulse lowering, invoked at QIR
// link time (the paper's JIT stage that queries hardware constraints). What
// the gate means is its row of the gate table — the row the compiler's
// lowering pass reads — so a gate-level payload and the same kernel compiled
// play the same samples; this writes the table's three primitives as schedule
// instructions, from the pulses DefaultPulse answers under cal (so one
// installed with SetPulseImpl is honoured).
func (d *SimDevice) lowerGate(cal *calibration, s *pulse.Schedule, gate *waveform.Gate, params []float64, qubits []int64) error {
	if !gate.HasLowering() {
		return fmt.Errorf("%w: gate %q has no calibrated lowering", qdmi.ErrNotSupported, gate.Name)
	}
	if len(qubits) != gate.Arity {
		return fmt.Errorf("%w: %s arity", qdmi.ErrInvalidArgument, gate.Name)
	}
	sites := make([]int, len(qubits))
	for i, q := range qubits {
		if q < 0 || int(q) >= len(d.cfg.Sites) {
			return fmt.Errorf("%w: qubit %d out of range", qdmi.ErrInvalidArgument, q)
		}
		sites[i] = int(q)
	}
	theta := 0.0
	if len(params) > 0 {
		theta = params[0]
	}
	return gate.Lower(theta, nil, func(p waveform.GatePulse) error {
		switch p.Kind {
		case waveform.PulseShiftPhase:
			port := d.table.Drive(sites[p.Qubit]).ID
			return s.Append(&pulse.FrameUpdate{Port: port, Frame: port + "-frame", Kind: pulse.ShiftPhase, Phase: p.Value})
		case waveform.PulseDrive:
			site := sites[p.Qubit]
			w, err := d.piEnvelope(cal, site)
			if err == nil {
				w, err = w.Scale(complex(p.Value, 0))
			}
			if err != nil {
				return err
			}
			port := d.table.Drive(site).ID
			return s.Append(&pulse.Play{Port: port, Frame: port + "-frame", Waveform: w})
		default: // waveform.PulseCZ
			return d.play(cal, s, "cz", sites, -1)
		}
	})
}

// piEnvelope returns the site's calibrated π envelope — the samples
// DefaultPulse("x") carries, without the round trip through a PulseImpl when
// nobody replaced the device's own.
func (d *SimDevice) piEnvelope(cal *calibration, site int) (*waveform.Waveform, error) {
	if impl := cal.pulse("x", []int{site}); impl != nil {
		return impl.Envelope(site)
	}
	return d.gateEnvelope(cal.piAmp[site])
}

// play appends to s the calibrated implementation of op on sites (installed
// under cal, else the device's own), its capture writing bit (-1: none): the
// one way a cz or a measurement becomes schedule instructions, as
// passes.Player.Play is the one way it becomes dialect ops.
func (d *SimDevice) play(cal *calibration, s *pulse.Schedule, op string, sites []int, bit int) error {
	impl := cal.pulse(op, sites)
	if impl == nil {
		var err error
		if impl, err = d.synthesizePulse(cal, op, sites); err != nil {
			return err
		}
	}
	ports, barrier, err := d.table.Resolve(impl, sites, bit >= 0)
	if err != nil {
		return err
	}
	for i, st := range impl.Steps {
		var in pulse.Instruction
		switch port := ports[i]; st.Kind {
		case "barrier":
			in = &pulse.Barrier{Ports: barrier}
		case "play":
			in = &pulse.Play{Port: port, Frame: port + "-frame", Waveform: st.Waveform}
		case "shift_phase":
			in = &pulse.FrameUpdate{Port: port, Frame: port + "-frame", Kind: pulse.ShiftPhase, Phase: st.PhaseRad}
		default: // capture
			in = &pulse.Capture{Port: port, Frame: port + "-frame", Bit: bit, DurationSamples: st.Samples}
		}
		if err := s.Append(in); err != nil {
			return err
		}
	}
	return nil
}

// executorLocked returns the device's execution engine, building it from
// the current true physics if AdvanceTime (or New) left none. Jobs share it:
// everything in it is immutable or locked, and what it caches is a
// deterministic function of the model, so a job's result does not depend
// on how many jobs ran before it. Callers hold d.mu.
func (d *SimDevice) executorLocked() (*simq.Executor, error) {
	if d.engine == nil {
		model, err := d.trueModel()
		if err != nil {
			return nil, err
		}
		d.engine = simq.NewExecutor(model)
	}
	return d.engine, nil
}

// preparedCap bounds the device's prepared-program store. A device's hot
// set is the handful of kernels and templates its clients resubmit; one-shot
// concrete modules pass through a ring this size without growing anything.
// A sweep point that cannot bind in place (a duration slot, a gate call) is
// linked for its job and never stored.
const preparedCap = 32

// preparedProgram is what the device derives from (module, calibration,
// engine) and not from a job's seed, shots or options: the module linked
// against the port, frame and calibration tables, resolved to start ticks
// and latched against the engine's channels. The first job that presents a
// module builds it; later jobs presenting the same *qir.Module reuse it. A
// template's entry is keyed on the template: its program was linked at the
// first point, with the slots the link numbered, so every later point binds
// into it (simq.Program.Bind).
//
// Identity, not content, is the key: the holders that resubmit a program —
// the lowering cache, a server connection's program store — keep one
// module per program and never write to it, and hashing the content per
// job would cost what the store saves. That is also why a module is
// verified once per entry, by the link that builds it, and not per job. An
// entry is current while the calibration it was linked against and its
// engine are still the device's own, which lookup checks by pointer
// comparison: nothing that moves either has to know the store exists. The
// entry keeps all three pointers reachable, so no address can be reused
// while it could match.
type preparedProgram struct {
	mod    *qir.Module
	calib  *calibration
	engine *simq.Executor
	prog   *simq.Program
}

// program returns what a job runs on mod: the store's program for it, or
// one linked now and stored. A template runs at the job's point: a store hit
// binds the point into the stored program, a miss links the template at it
// and stores the result only if it can take later points in place. The bind
// span records the point's evaluation and, on a hit, its binding.
func (d *SimDevice) program(mod *qir.Module, opts qdmi.JobOptions) (*simq.Program, error) {
	prog, cal, engine, err := d.lookup(mod)
	if err != nil {
		return nil, err
	}
	var pt *pulse.Binding
	if opts.Bindings != nil {
		start := time.Now()
		var sbuf [4][]complex128
		var vbuf [8]float64
		samples, values, err := mod.BindSlots(opts.Bindings, sbuf[:0], vbuf[:0])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", qdmi.ErrInvalidArgument, err)
		}
		pt = &pulse.Binding{Samples: samples, Values: values}
		if prog != nil {
			if prog, err = prog.Bind(*pt); err != nil {
				return nil, err
			}
		}
		opts.Telemetry.Record(telemetry.StageBind, d.cfg.Name, start, time.Since(start), opts.TelemetryParent)
	}
	if prog != nil {
		return prog, nil
	}
	// A template is linked with this point's values, never its base shapes:
	// an envelope whose base exceeds full scale is legal in a template whose
	// amplitude range scales it down.
	if _, prog, err = d.link(cal, engine, mod, pt); err != nil {
		return nil, err
	}
	if pt == nil || bindsInPlace(mod) {
		// Any other program is one-shot: stored, it could never be hit and
		// would push out programs that can.
		d.store(mod, cal, engine, prog)
	}
	return prog, nil
}

// bindsInPlace reports whether a template's program can take every point
// in place. It must have no gate call, so every f64 slot is a frame update's
// frequency or phase; and no i64 slot, a delay or capture count, which moves
// a duration.
func bindsInPlace(tpl *qir.Module) bool {
	for _, c := range tpl.Body {
		if waveform.GateByQIS(c.Callee) != nil ||
			slices.ContainsFunc(c.Args, func(a qir.Arg) bool { return a.Expr != nil && a.Kind == qir.ArgI64 }) {
			return false
		}
	}
	return true
}

// lookup returns the store's program for mod under the device's current
// calibration and engine — nil if it has none that is current — and the
// calibration and engine a new entry is linked against.
func (d *SimDevice) lookup(mod *qir.Module) (*simq.Program, *calibration, *simq.Executor, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	engine, err := d.executorLocked()
	if err != nil {
		return nil, nil, nil, err
	}
	cal := d.calib.Load()
	if i := slices.IndexFunc(d.programs[:], func(p preparedProgram) bool {
		return p.mod == mod && p.calib == cal && p.engine == engine
	}); i >= 0 {
		return d.programs[i].prog, cal, engine, nil
	}
	return nil, cal, engine, nil
}

// store adds mod's program, linked against cal for engine, to the ring.
func (d *SimDevice) store(mod *qir.Module, cal *calibration, engine *simq.Executor, prog *simq.Program) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.programs[d.nextProgram] = preparedProgram{mod: mod, calib: cal, engine: engine, prog: prog}
	d.nextProgram = (d.nextProgram + 1) % preparedCap
	// A replaced calibration or a dropped engine never comes back, so an
	// entry holding another can never match again: let go of it, and the
	// store pins no calibration or engine but the current ones.
	for i := range d.programs {
		if p := &d.programs[i]; p.calib != d.calib.Load() || p.engine != d.engine {
			*p = preparedProgram{}
		}
	}
}

// link is the device's one way from a module to what it runs, template or
// not: mod linked at pt (nil for a concrete module) against cal's port,
// frame and calibration tables by qir.BuildSchedule — which verifies mod, so
// a module is verified once per store entry — then, given an engine,
// resolved to start ticks and prepared for it with the slots the link
// numbered.
func (d *SimDevice) link(cal *calibration, engine *simq.Executor, mod *qir.Module, pt *pulse.Binding) (*pulse.Schedule, *simq.Program, error) {
	binding, err := d.binding(cal, mod.PortNames)
	if err != nil {
		return nil, nil, err
	}
	sched, slots, err := qir.BuildSchedule(mod, binding, pt)
	if err != nil {
		if mod.Verify() != nil { // malformed, not merely unlinkable here
			err = fmt.Errorf("%w: %v", qdmi.ErrInvalidArgument, err)
		}
		return nil, nil, err
	}
	if engine == nil {
		return sched, nil, nil
	}
	sp, err := sched.Resolve()
	if err != nil {
		return nil, nil, err
	}
	prog, err := engine.Prepare(sp, slots)
	if err != nil {
		return nil, nil, err
	}
	return sched, prog, nil
}

// trueModel builds the system model from the drifted true physics: channel
// carriers sit at the true transition frequencies, so frames tuned to
// (stale) calibrated frequencies acquire detuning errors. Callers hold
// d.mu.
func (d *SimDevice) trueModel() (*simq.SystemModel, error) {
	ampScale := 1 + d.drift.ampScale.x
	dims := make([]int, len(d.cfg.Sites))
	for i, s := range d.cfg.Sites {
		dims[i] = s.Dim
	}
	drift := simq.TransmonDrift(dims, 0, 0, d.cfg.Sites[0].AnharmHz)
	for i := 1; i < len(d.cfg.Sites); i++ {
		drift = drift.Add(simq.TransmonDrift(dims, i, 0, d.cfg.Sites[i].AnharmHz))
	}
	var channels []*simq.ControlChannel
	var collapses []simq.Collapse
	for i, s := range d.cfg.Sites {
		trueFreq := s.FreqHz + d.drift.freqOffsetHz[i].x
		channels = append(channels,
			simq.TransmonDriveChannel(d.table.Drive(i).ID, dims, i, d.cfg.DriveRabiHz*ampScale, trueFreq),
			simq.TransmonDriveChannel(d.table.Readout(i).ID, dims, i, readoutStimulusRabiHz, trueFreq),
		)
		collapses = append(collapses, simq.RelaxationCollapses(dims, i, s.T1Seconds, s.T2Seconds)...)
	}
	for _, c := range d.cfg.Couplings {
		id := d.table.Coupler(c.A, c.A+1).ID
		switch c.Kind {
		case CouplingZZ:
			channels = append(channels, simq.ZZCouplerChannel(id, dims, c.A, c.RabiHz*ampScale))
		case CouplingExchange:
			channels = append(channels, simq.ExchangeCouplerChannel(id, dims, c.A, c.RabiHz*ampScale))
		default:
			return nil, fmt.Errorf("devices: unknown coupling kind %d", c.Kind)
		}
	}
	return simq.NewSystemModel(dims, drift, channels, collapses)
}

// SubmitJob implements qdmi.Device. Payloads are QIR modules (pulse or base
// profile); the simulated hardware runs the job when it is first waited on.
func (d *SimDevice) SubmitJob(payload []byte, format qdmi.ProgramFormat, shots int) (qdmi.Job, error) {
	return d.SubmitJobOpts(payload, format, qdmi.JobOptions{Shots: shots})
}

// SubmitJobOpts implements the qdmi.AcquisitionSubmitter capability:
// submission with acquisition options (measurement level, return mode).
func (d *SimDevice) SubmitJobOpts(payload []byte, format qdmi.ProgramFormat, opts qdmi.JobOptions) (qdmi.Job, error) {
	switch format {
	case qdmi.FormatQIRBase, qdmi.FormatQIRPulse:
	default:
		return nil, fmt.Errorf("%w: format %q", qdmi.ErrNotSupported, format)
	}
	mod, err := qir.ParseModule(string(payload))
	if err != nil {
		return nil, err
	}
	if mod.UsesPulse() && format != qdmi.FormatQIRPulse {
		return nil, fmt.Errorf("%w: pulse payload under %q", qdmi.ErrInvalidArgument, format)
	}
	return d.submit(mod, opts)
}

// SubmitModule implements the qdmi.ModuleSubmitter capability: the
// in-memory path every client job takes, which skips the emit-text/parse-text
// round trip SubmitJobOpts pays per payload. A template arrives as itself,
// with the job's point in opts.Bindings, and binds into the template's
// prepared program; everything downstream of parsing is the same submit. The
// module is verified when its prepared program is built — once per store
// entry, not per job — and a malformed one fails its job with
// qdmi.ErrInvalidArgument before anything runs.
func (d *SimDevice) SubmitModule(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if mod == nil {
		return nil, fmt.Errorf("%w: nil module", qdmi.ErrInvalidArgument)
	}
	return d.submit(mod, opts)
}

// submit is the one body behind the three exported submit entry points:
// it refuses a template that comes without a point to bind (slots parse, so
// text can carry them this far too), validates the job options and the
// module's port names, and draws the job ID and seed from the device's job
// stream — at submit, so results follow submit order. The job runs when it
// is first waited on.
func (d *SimDevice) submit(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if opts.Bindings == nil && mod.IsParametric() {
		return nil, fmt.Errorf("%w: module %q still carries unbound parameters %v",
			qdmi.ErrInvalidArgument, mod.ID, mod.ParamNames())
	}
	shots := opts.Shots
	if shots <= 0 || shots > d.cfg.MaxShots {
		return nil, fmt.Errorf("%w: shots %d outside (0, %d]", qdmi.ErrInvalidArgument, shots, d.cfg.MaxShots)
	}
	switch opts.MeasLevel {
	case readout.LevelDiscriminated, readout.LevelKerneled, readout.LevelRaw:
	default:
		return nil, fmt.Errorf("%w: measurement level %v", qdmi.ErrInvalidArgument, opts.MeasLevel)
	}
	if err := d.checkPortNames(mod.PortNames); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.nextJob++
	n := d.nextJob
	seed := d.jobRng.Int63()
	overhead := d.jobOverhead
	metrics := d.shotMetricsLocked(opts.Telemetry.Registry())
	d.mu.Unlock()

	var buf [48]byte
	id := strconv.AppendInt(append(buf[:0], d.jobPrefix...), int64(n), 10)
	return qdmi.NewRunOnWaitJob(string(id), func(ctx context.Context, job *qdmi.AsyncJob) {
		d.runJob(ctx, job, mod, opts, seed, overhead, metrics)
	}), nil
}

// runJob executes a payload on the simulated hardware. It is the body of the
// job's first Wait, on that waiter's goroutine and under its ctx — for a
// dispatched job, the QRM worker and the ticket's. The ctx firing and a
// CancelRunning from any goroutine (the qdmi.RunningCanceller capability)
// both abort the run: the pipeline polls for them between stages and the
// dynamics engine between integration segments and every ~1024 driven
// samples inside them, so either lands promptly — even mid-way through a
// single long Play — and the job ends JobCancelled, its result discarded.
func (d *SimDevice) runJob(ctx context.Context, job *qdmi.AsyncJob, mod *qir.Module, opts qdmi.JobOptions, seed int64, overhead time.Duration, metrics *shotMetrics) {
	aborted := func() bool { return ctx.Err() != nil || job.Aborted() }
	if overhead > 0 {
		// Hold the device for the electronics overhead; a cancelled job
		// releases it immediately.
		timer := time.NewTimer(overhead)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		case <-job.Done():
			return
		}
	}
	prog, err := d.program(mod, opts)
	if err != nil {
		job.Fail(err)
		return
	}
	if aborted() {
		return
	}
	execOpts := simq.ExecOptions{
		Shots:       opts.Shots,
		Seed:        seed,
		SiteError:   d.siteError,
		Interrupted: aborted,
	}
	if opts.MeasLevel != readout.LevelDiscriminated {
		// The believed calibration table plays no role here: readout errors
		// are physical.
		execOpts.Readout = &simq.ReadoutModel{Level: opts.MeasLevel, Return: opts.MeasReturn, Sites: d.readoutSites}
	}
	execStart := time.Now()
	res, err := prog.Run(execOpts)
	if err != nil {
		if !errors.Is(err, simq.ErrInterrupted) {
			job.Fail(err)
		}
		return
	}
	// Device-side telemetry: the executor reports how much of the run was
	// readout sampling/post-processing, splitting the wall time into the
	// device-execute and readout-post stages under the scheduler's dispatch
	// span.
	execEnd := time.Now()
	opts.Telemetry.Record(telemetry.StageDeviceExecute, d.cfg.Name,
		execStart, execEnd.Sub(execStart)-res.ReadoutWall, opts.TelemetryParent)
	opts.Telemetry.Record(telemetry.StageReadoutPost, d.cfg.Name,
		execEnd.Add(-res.ReadoutWall), res.ReadoutWall, opts.TelemetryParent)
	metrics.record(prog, res, execEnd.Sub(execStart))
	job.Finish(&qdmi.Result{
		Counts:          res.Counts,
		Shots:           res.Shots,
		DurationSeconds: res.DurationSeconds,
		MeasLevel:       res.MeasLevel,
		Bits:            res.MeasuredBits,
		IQ:              res.IQ,
		Raw:             res.Raw,
	})
}

// shotMetrics are the handles a job's execution throughput is published
// through, resolved in one registry: the fleet-wide "simq/..." counters and
// their per-device twins, and the fleet-wide "simq/ticks/<kind>" counters of
// the ticks each kind of evolution step covered.
type shotMetrics struct {
	reg                                                   *telemetry.Registry
	shots, propHit, propMiss, dissipatorSteps             *telemetry.Counter
	devShots, devPropHit, devPropMiss, devDissipatorSteps *telemetry.Counter
	devShotLatency                                        *telemetry.Histogram
	ticks                                                 [len(simq.StepKinds)]*telemetry.Counter
}

// shotMetricsLocked returns the device's handles in reg — nil for an
// uninstrumented job — resolving them anew only when a job brings a
// registry other than the last one's. d.mu is held.
func (d *SimDevice) shotMetricsLocked(reg *telemetry.Registry) *shotMetrics {
	if reg == nil {
		return nil
	}
	if m := d.shotMetrics; m != nil && m.reg == reg {
		return m
	}
	name := d.cfg.Name
	d.shotMetrics = &shotMetrics{
		reg:                reg,
		shots:              reg.Counter("simq/shots"),
		propHit:            reg.Counter("simq/prop_cache/hit"),
		propMiss:           reg.Counter("simq/prop_cache/miss"),
		dissipatorSteps:    reg.Counter("simq/dissipator_steps"),
		devShots:           reg.Counter("simq/shots/" + name),
		devPropHit:         reg.Counter("simq/prop_cache/hit/" + name),
		devPropMiss:        reg.Counter("simq/prop_cache/miss/" + name),
		devDissipatorSteps: reg.Counter("simq/dissipator_steps/" + name),
		devShotLatency:     reg.Hist("simq/shot_latency/" + name),
	}
	for k, kind := range simq.StepKinds {
		d.shotMetrics.ticks[k] = reg.Counter("simq/ticks/" + kind)
	}
	return d.shotMetrics
}

// record publishes a job's execution throughput: total shots executed
// (fleet-wide and per-device counters — shots-per-second over any window
// is the counter delta over that window), the mean per-shot latency (its
// reciprocal is this job's shots/sec) and the ticks of prog's plan by step
// kind. An uninstrumented job's nil handles record nothing.
func (m *shotMetrics) record(prog *simq.Program, res *simq.ExecResult, wall time.Duration) {
	if m == nil || res.Shots <= 0 {
		return
	}
	m.shots.Add(int64(res.Shots))
	m.devShots.Add(int64(res.Shots))
	// A warm device shows hits and no misses: it stopped exponentiating.
	m.propHit.Add(res.PropCacheHits)
	m.devPropHit.Add(res.PropCacheHits)
	m.propMiss.Add(res.PropCacheMisses)
	m.devPropMiss.Add(res.PropCacheMisses)
	m.dissipatorSteps.Add(res.DissipatorSteps)
	m.devDissipatorSteps.Add(res.DissipatorSteps)
	for k, n := range prog.Ticks() {
		if n != 0 {
			m.ticks[k].Add(n)
		}
	}
	if wall > 0 {
		m.devShotLatency.Observe(wall / time.Duration(res.Shots))
	}
}

// BuildScheduleForPayload lowers a payload to a schedule without executing
// it.
func (d *SimDevice) BuildScheduleForPayload(mod *qir.Module) (*pulse.Schedule, error) {
	sched, _, err := d.link(d.calib.Load(), nil, mod, nil)
	return sched, err
}
