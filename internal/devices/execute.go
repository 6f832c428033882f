package devices

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// Binding assembles the qir.DeviceBinding for a payload: port handle i of
// the module maps to the device port named module.PortNames[i]; all
// remaining device ports follow so calibrated gate lowering can use them.
func (d *SimDevice) Binding(portNames []string) (*qir.DeviceBinding, error) {
	return d.binding(d.calib.Load(), portNames)
}

// binding is Binding against cal: every frame and lowered gate of one link
// reads it, so a schedule belongs to one epoch whatever recalibrates meanwhile.
func (d *SimDevice) binding(cal *calibration, portNames []string) (*qir.DeviceBinding, error) {
	if err := d.checkPortNames(portNames); err != nil {
		return nil, err
	}
	ports := make([]*pulse.Port, 0, len(d.ports))
	for _, name := range portNames {
		ports = append(ports, d.ports[d.portIndex(name)])
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
		LowerMeasure: d.lowerMeasure,
	}, nil
}

// checkPortNames is the part of Binding every job pays, prepared or not:
// each name a payload declares is a device port, named once. It allocates
// nothing; a list it accepts is no longer than the port table.
func (d *SimDevice) checkPortNames(portNames []string) error {
	for i, name := range portNames {
		if d.portIndex(name) < 0 {
			return fmt.Errorf("%w: payload references unknown port %q", qdmi.ErrInvalidArgument, name)
		}
		if slices.Contains(portNames[:i], name) {
			return fmt.Errorf("%w: payload references port %q twice", qdmi.ErrInvalidArgument, name)
		}
	}
	return nil
}

// portIndex returns the position of a port in the device's port table, or
// -1 if the device has no such port.
func (d *SimDevice) portIndex(id string) int {
	return slices.IndexFunc(d.ports, func(p *pulse.Port) bool { return p.ID == id })
}

// frameFor creates the initial carrier frame of a port from the calibration
// table.
func (d *SimDevice) frameFor(cal *calibration, portID string) (*pulse.Frame, error) {
	for i := range d.cfg.Sites {
		if portID == d.drivePort[i] {
			return pulse.NewFrame(portID+"-frame", cal.freqHz[i]), nil
		}
		if portID == d.readPort[i] {
			// Readout carrier; does not influence qubit dynamics.
			return pulse.NewFrame(portID+"-frame", d.cfg.Sites[i].FreqHz), nil
		}
	}
	for _, id := range d.couplePort {
		if portID == id {
			return pulse.NewFrame(portID+"-frame", 0), nil
		}
	}
	return nil, fmt.Errorf("%w: unknown port %q", qdmi.ErrInvalidArgument, portID)
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
			port := d.drivePort[sites[p.Qubit]]
			return s.Append(&pulse.ShiftPhase{Port: port, Frame: port + "-frame", Phase: p.Value})
		case waveform.PulseDrive:
			site := sites[p.Qubit]
			w, err := d.piEnvelope(cal, site)
			if err == nil {
				w, err = w.Scale(complex(p.Value, 0))
			}
			if err != nil {
				return err
			}
			port := d.drivePort[site]
			return s.Append(&pulse.Play{Port: port, Frame: port + "-frame", Waveform: w})
		default: // waveform.PulseCZ
			return d.appendCZ(cal, s, sites[0], sites[1])
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

// appendCZ plays the pair's cz implementation on the coupler, its barriers
// spanning the two drive ports and the coupler.
func (d *SimDevice) appendCZ(cal *calibration, s *pulse.Schedule, a, b int) error {
	if a > b {
		a, b = b, a
	}
	cp, ok := d.couplePort[[2]int{a, b}]
	if !ok {
		return fmt.Errorf("%w: sites %d,%d are not coupled", qdmi.ErrNotSupported, a, b)
	}
	impl := cal.pulse("cz", []int{a, b})
	if impl == nil {
		var err error
		if impl, err = d.synthesizePulse(cal, "cz", []int{a, b}); err != nil {
			return err
		}
	}
	group := []string{d.drivePort[a], d.drivePort[b], cp}
	for _, st := range impl.Steps {
		var in pulse.Instruction
		switch st.Kind {
		case "barrier":
			in = &pulse.Barrier{Ports: group}
		case "play":
			w, err := st.Waveform.Materialize()
			if err != nil {
				return err
			}
			in = &pulse.Play{Port: cp, Frame: cp + "-frame", Waveform: w}
		case "shift_phase":
			in = &pulse.ShiftPhase{Port: cp, Frame: cp + "-frame", Phase: st.PhaseRad}
		default:
			return fmt.Errorf("%w: cz impl step %q", qdmi.ErrNotSupported, st.Kind)
		}
		if err := s.Append(in); err != nil {
			return err
		}
	}
	return nil
}

// lowerMeasure barriers the site's ports and captures the readout window.
func (d *SimDevice) lowerMeasure(s *pulse.Schedule, qubit, result int64) error {
	if qubit < 0 || int(qubit) >= len(d.cfg.Sites) {
		return fmt.Errorf("%w: qubit %d out of range", qdmi.ErrInvalidArgument, qubit)
	}
	site := int(qubit)
	group := []string{d.drivePort[site], d.readPort[site]}
	// Couplers join in pair order, never in map order: the barrier is part
	// of a schedule the determinism contract covers.
	for _, pair := range [][2]int{{site - 1, site}, {site, site + 1}} {
		if cp, ok := d.couplePort[pair]; ok {
			group = append(group, cp)
		}
	}
	if err := s.Append(&pulse.Barrier{Ports: group}); err != nil {
		return err
	}
	return s.Append(&pulse.Capture{
		Port: d.readPort[site], Frame: d.readPort[site] + "-frame",
		Bit: int(result), DurationSamples: d.cfg.ReadoutSamples,
	})
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
// set is the handful of kernels its clients resubmit; one-shot modules
// (every bound sweep point is one) pass through a ring this size without
// growing anything.
const preparedCap = 32

// preparedProgram is what the device derives from (module, calibration,
// engine) and not from a job's seed, shots or options: the module linked
// against the port, frame and calibration tables, resolved to start ticks
// and latched against the engine's channels. The first job that presents a
// module builds it; later jobs presenting the same *qir.Module reuse it.
//
// Identity, not content, is the key: the holders that resubmit a program —
// the lowering cache, a server connection's program store — keep one
// module per program and never write to it, and hashing the content per
// job would cost what the store saves. An entry is current while the
// calibration it was linked against and its engine are still the device's
// own, which prepared checks by pointer comparison: nothing that moves either
// has to know the store exists. The entry keeps all three pointers
// reachable, so no address can be reused while it could match.
type preparedProgram struct {
	mod    *qir.Module
	calib  *calibration
	engine *simq.Executor
	prog   *simq.Program
}

// prepared returns the module's prepared program under the device's current
// calibration and engine, preparing and storing it when the store has none
// that is current.
func (d *SimDevice) prepared(mod *qir.Module) (*simq.Program, error) {
	d.mu.Lock()
	engine, err := d.executorLocked()
	cal := d.calib.Load()
	var prog *simq.Program
	if i := slices.IndexFunc(d.programs[:], func(p preparedProgram) bool {
		return p.mod == mod && p.calib == cal && p.engine == engine
	}); i >= 0 {
		prog = d.programs[i].prog
	}
	d.mu.Unlock()
	if err != nil || prog != nil {
		return prog, err
	}

	binding, err := d.binding(cal, mod.PortNames)
	if err != nil {
		return nil, err
	}
	sched, err := qir.BuildSchedule(mod, binding)
	if err != nil {
		return nil, err
	}
	sp, err := sched.Resolve()
	if err != nil {
		return nil, err
	}
	if prog, err = engine.Prepare(sp); err != nil {
		return nil, err
	}

	d.mu.Lock()
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
	d.mu.Unlock()
	return prog, nil
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
			simq.TransmonDriveChannel(d.drivePort[i], dims, i, d.cfg.DriveRabiHz*ampScale, trueFreq),
			simq.TransmonDriveChannel(d.readPort[i], dims, i, readoutStimulusRabiHz, trueFreq),
		)
		collapses = append(collapses, simq.RelaxationCollapses(dims, i, s.T1Seconds, s.T2Seconds)...)
	}
	for _, c := range d.cfg.Couplings {
		id := d.couplePort[[2]int{c.A, c.A + 1}]
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
// bind-aware execution path of the template subsystem. Bound sweep points
// arrive as in-memory QIR modules and skip the emit-text/parse-text round
// trip SubmitJobOpts pays per payload; everything downstream of parsing is
// the same submit.
func (d *SimDevice) SubmitModule(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if mod == nil {
		return nil, fmt.Errorf("%w: nil module", qdmi.ErrInvalidArgument)
	}
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", qdmi.ErrInvalidArgument, err)
	}
	return d.submit(mod, opts)
}

// submit is the one body behind the three exported submit entry points:
// it refuses a template nobody bound (slots parse, so text can carry them
// this far too), validates the job options and the module's port names, and
// draws the job ID and seed from the device's job stream — at submit, so
// results follow submit order. The job runs when it is first waited on.
func (d *SimDevice) submit(mod *qir.Module, opts qdmi.JobOptions) (qdmi.Job, error) {
	if mod.IsParametric() {
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
	d.mu.Unlock()

	var buf [48]byte
	id := strconv.AppendInt(append(buf[:0], d.names.jobPrefix...), int64(n), 10)
	return qdmi.NewRunOnWaitJob(string(id), func(ctx context.Context, job *qdmi.AsyncJob) {
		d.runJob(ctx, job, mod, opts, seed, overhead)
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
func (d *SimDevice) runJob(ctx context.Context, job *qdmi.AsyncJob, mod *qir.Module, opts qdmi.JobOptions, seed int64, overhead time.Duration) {
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
	prog, err := d.prepared(mod)
	if err != nil {
		job.Fail(err)
		return
	}
	if aborted() {
		return
	}
	workers := d.ShotWorkers()
	if opts.ShotWorkers > 0 {
		workers = opts.ShotWorkers
	}
	// The per-job count arrives unvalidated from the wire. Workers beyond
	// the processor count only add goroutines, and the count cannot change
	// a result, so cap it.
	workers = min(workers, runtime.GOMAXPROCS(0))
	execOpts := simq.ExecOptions{
		Shots:       opts.Shots,
		Seed:        seed,
		SiteError:   d.siteError,
		Interrupted: aborted,
		ShotWorkers: workers,
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
	// span. Both spans measure wall-clock time, so a shot-parallel run's
	// device-execute span reflects the parallel wall time, not the sum of
	// per-worker busy time — worker utilization lands in the histograms
	// below instead.
	execEnd := time.Now()
	opts.Telemetry.Record(telemetry.StageDeviceExecute, d.cfg.Name,
		execStart, execEnd.Sub(execStart)-res.ReadoutWall, opts.TelemetryParent)
	opts.Telemetry.Record(telemetry.StageReadoutPost, d.cfg.Name,
		execEnd.Add(-res.ReadoutWall), res.ReadoutWall, opts.TelemetryParent)
	d.recordShotMetrics(opts.Telemetry.Registry(), res, execEnd.Sub(execStart))
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

// recordShotMetrics publishes per-job execution throughput into the
// trace's metrics registry: total shots executed (fleet-wide and
// per-device counters — shots-per-second over any window is the counter
// delta over that window), the mean per-shot latency (its reciprocal is
// this job's shots/sec), and one busy-time observation per shot worker
// (each entry over the job's wall time is that worker's utilization).
// Nil-safe: uninstrumented jobs skip out on the nil registry.
func (d *SimDevice) recordShotMetrics(reg *telemetry.Registry, res *simq.ExecResult, wall time.Duration) {
	if reg == nil || res.Shots <= 0 {
		return
	}
	reg.Add("simq/shots", int64(res.Shots))
	reg.Add(d.names.shots, int64(res.Shots))
	// A warm device shows hits and no misses: it stopped exponentiating.
	reg.Add("simq/prop_cache/hit", res.PropCacheHits)
	reg.Add(d.names.propHit, res.PropCacheHits)
	reg.Add("simq/prop_cache/miss", res.PropCacheMisses)
	reg.Add(d.names.propMiss, res.PropCacheMisses)
	reg.Add("simq/dissipator_steps", res.DissipatorSteps)
	reg.Add(d.names.dissipatorSteps, res.DissipatorSteps)
	if wall > 0 {
		reg.Observe(d.names.shotLatency, wall/time.Duration(res.Shots))
	}
	for _, b := range res.WorkerBusy {
		reg.Observe(d.names.workerBusy, b)
	}
}

// deviceNames are the strings a job spells with the device's name in them,
// built once in New.
type deviceNames struct {
	jobPrefix string // "<name>-job-", completed by the job number
	// per-device metric names
	shots, propHit, propMiss, dissipatorSteps, shotLatency, workerBusy string
}

func newDeviceNames(name string) deviceNames {
	return deviceNames{
		jobPrefix:       name + "-job-",
		shots:           "simq/shots/" + name,
		propHit:         "simq/prop_cache/hit/" + name,
		propMiss:        "simq/prop_cache/miss/" + name,
		dissipatorSteps: "simq/dissipator_steps/" + name,
		shotLatency:     "simq/shot_latency/" + name,
		workerBusy:      "simq/worker_busy/" + name,
	}
}

// BuildScheduleForPayload lowers a payload to a schedule without executing
// it.
func (d *SimDevice) BuildScheduleForPayload(mod *qir.Module) (*pulse.Schedule, error) {
	binding, err := d.Binding(mod.PortNames)
	if err != nil {
		return nil, err
	}
	return qir.BuildSchedule(mod, binding)
}
