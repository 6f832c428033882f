package simq

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync"
	"time"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/readout"
)

// ErrInterrupted is returned by Run when ExecOptions.Interrupted reports
// true mid-integration (the job was cancelled).
var ErrInterrupted = errors.New("simq: execution interrupted")

// ExecOptions configures schedule execution.
type ExecOptions struct {
	// Shots is the number of measurement samples to draw (default 1024).
	Shots int
	// Seed seeds the shot sampler (0 picks a fixed default for
	// reproducibility).
	Seed int64
	// SiteError, when non-nil, gives each site's assignment-error
	// probabilities, applied per measured bit: p01 that a true 0 reads as 1,
	// p10 that a true 1 reads as 0. A run reads it once per capture. Nil
	// reads every bit true.
	SiteError func(site int) (p01, p10 float64)
	// Readout, when non-nil and its Level is kerneled or raw, synthesizes
	// IQ-plane measurement records instead of bit flips: discriminated bits
	// then come from thresholding the synthesized points, so counts and IQ
	// data are mutually consistent.
	Readout *ReadoutModel
	// Interrupted, when non-nil, is polled between integration segments and
	// every interruptPollTicks (1024) driven samples inside them, so even a
	// single very long Play cancels promptly; once it reports true the run
	// aborts with ErrInterrupted. Devices wire it to their job-cancellation
	// state. The sampler also polls it every 64 shots, so a cancelled run
	// stops drawing within that many.
	Interrupted func() bool
	// Deprecated: ShotWorkers is ignored; every run draws its shots serially
	// on the calling goroutine. It is kept only because the benchmark
	// compiles against it.
	ShotWorkers int

	// exact replaces the fast path (matrix-free scaled-Taylor ticks,
	// memoized Taylor-built propagators for idle segments and
	// constant-envelope stretches) with the reference: one eigendecomposition
	// (linalg.ExpI) per driven sample and per idle segment, never cached —
	// orders of magnitude slower. Only this package's property tests set
	// it: they pin the fast path against it (state fidelity ≥ 1−1e−9).
	exact bool
}

// ExecResult is the outcome of executing a scheduled pulse program.
type ExecResult struct {
	// Counts maps a classical bitmask (bit i = classical register i) to the
	// number of shots that produced it.
	Counts map[uint64]int
	// Shots is the total number of samples drawn.
	Shots int
	// MeasuredBits lists the classical bit indices that were written, in
	// ascending order.
	MeasuredBits []int
	// DurationSeconds is the makespan in wall-clock units.
	DurationSeconds float64
	// MeasLevel records which measurement level the run returned.
	MeasLevel readout.MeasLevel
	// IQ holds one integrated point per capture, in MeasuredBits order,
	// per shot (or one averaged row under ReturnAverage); set for kerneled
	// and raw runs.
	IQ [][]readout.IQ
	// Raw holds the per-sample capture traces, [shot][capture][sample];
	// set for raw runs only.
	Raw [][][]complex128
	// FinalState is set when the state-vector engine ran (a model without
	// collapse operators).
	FinalState *State
	// FinalDensity is set when the density-matrix engine ran (a model with
	// collapse operators). Exactly one of the two is set. Its matrix is
	// exactly Hermitian: every entry below the diagonal is the conjugate of
	// its mirror and the diagonal is real.
	FinalDensity *Density
	// ReadoutWall is the wall-clock time spent sampling and post-processing
	// measurement outcomes (bit sampling, readout error, IQ synthesis) after
	// the state evolution finished — the telemetry split between the
	// device-execute and readout-post stages. Zero for capture-free runs.
	ReadoutWall time.Duration
	// Deprecated: Workers is always 1. It is kept only because the
	// benchmark compiles against it.
	Workers int
	// Deprecated: WorkerBusy holds one entry, the sampling phase's busy time
	// (ReadoutWall). It is kept only because the benchmark compiles against
	// it.
	WorkerBusy []time.Duration
	// EngineStats counts the run's propagator-cache traffic and dissipator
	// steps.
	EngineStats
}

// EngineStats is what a run did that a warm executor saves or a closed
// system never does: a job on a warm device shows hits and no misses.
type EngineStats struct {
	// PropCacheHits and PropCacheMisses count look-ups of the executor's
	// propagator cache; every miss is one dense Taylor build.
	PropCacheHits, PropCacheMisses int64
	// DissipatorSteps counts RK4 steps of the density engine's dissipator.
	DissipatorSteps int64
}

// Executor integrates scheduled pulse programs against a SystemModel. It is
// the simulated analogue of the vendor "hardware runtime" that QIR pulse
// intrinsics link against (paper, Section 5.4).
//
// An Executor holds everything that is a function of the model and not of
// the program: the spectrally shifted sparse drift and the propagator
// cache (the model itself carries the channels' sparse operators and the
// collapse precompute). All of it is immutable or locked, so one Executor
// serves any number of Runs, concurrently; a run's mutable scratch comes
// from the executor's pool and goes back when the evolution ends.
type Executor struct {
	Model *SystemModel

	cache *propCache
	// drift is the sparse view of Drift − λI (nil when that is zero) and
	// lam the spectral shift λ in rad/s; see fastEngine.
	drift *linalg.Sparse
	lam   float64
	// scratch holds idle *fastEngine values. They are sized by the model,
	// so one executor's engines fit every program it runs.
	scratch sync.Pool
}

// NewExecutor wraps a system model.
func NewExecutor(m *SystemModel) *Executor {
	e := &Executor{Model: m, cache: newPropCache()}
	if m.Drift.MaxAbs() == 0 {
		return e
	}
	n := m.HilbertDim()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		d := real(m.Drift.At(i, i))
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	e.lam = (lo + hi) / 2
	shifted := m.Drift
	if e.lam != 0 {
		shifted = m.Drift.Clone()
		for i := 0; i < n; i++ {
			shifted.Set(i, i, shifted.At(i, i)-complex(e.lam, 0))
		}
	}
	if sp := linalg.NewSparse(shifted); sp.NNZ() > 0 {
		e.drift = sp
	}
	return e
}

// driftFree reports whether the drift Hamiltonian is exactly zero.
func (e *Executor) driftFree() bool { return e.drift == nil && e.lam == 0 }

// openSystem reports whether the model has collapse operators, which is
// what picks the density engine over the state-vector one.
func (e *Executor) openSystem() bool { return len(e.Model.Collapses) > 0 }

// playEvent is an active waveform on a channel with latched frame state.
type playEvent struct {
	start   int64
	samples []complex128
	chi0    complex128 // e^{-iφ} at latch time
	detune  float64    // Δf = frame − carrier, Hz
	ch      *ControlChannel
}

// captureEvent records a classical-bit write and its acquisition window.
type captureEvent struct {
	bit     int
	site    int
	samples int64
}

// Program is a scheduled pulse program prepared for one Executor:
// everything a run derives from (program, model) and nothing it derives
// from ExecOptions — the plays with their latched frame state and control
// channel, the integration segment boundaries, the captures in classical-bit
// order, the makespan and the sample period. It is immutable, so any number
// of runs, concurrent or not, may share it; it holds the inputs of the
// evolution, never its output.
type Program struct {
	exec     *Executor
	plays    []playEvent // by start tick, simultaneous plays in program order
	ticks    []int64     // segmentTicks(plays, makespan)
	captures []captureEvent
	bits     []int // captures' classical bits, ascending
	// masks holds each basis index's measured bitmask: bit i set when the
	// site of captures[i] is at level ≥ 1 (leakage reads as 1).
	masks    []uint64
	makespan int64
	dt       float64
	// A template's program (Prepare with slots) also keeps every frame's
	// state at tick 0 and the steps Prepare took from there, in time order,
	// to update frames and latch them into plays: what Bind takes again.
	frames []pulse.Frame
	walk   []frameStep
}

// Slot marks an instruction of a template's scheduled program whose value
// each job binds anew (see Program.Bind). Samples indexes the bound sample
// sets a play takes its samples from; Hz and Phase index the bound values a
// frame update takes its frequency and phase from. -1 marks a field the
// instruction keeps. No slot moves a duration: the segment boundaries of a
// template's program hold for every binding.
type Slot struct{ Samples, Hz, Phase int }

// Binding is one job's values for the slots of a template's program,
// indexed as its Slots index them.
type Binding struct {
	Samples [][]complex128
	Values  []float64
}

// frameStep is one step of a program's frame walk: in, an update of
// frames[frame] or the play latching it into plays[play], and the Slot of
// in (all -1 when nothing rebinds it).
type frameStep struct {
	in    pulse.Instruction
	frame int
	play  int
	slot  Slot
}

// Run executes the scheduled program: Prepare, then one run of the
// prepared program. A caller that runs the same program again keeps the
// Program and calls its Run instead.
func (e *Executor) Run(sp *pulse.ScheduledProgram, opts ExecOptions) (*ExecResult, error) {
	p, err := e.Prepare(sp, nil)
	if err != nil {
		return nil, err
	}
	return p.Run(opts)
}

// Prepare links a scheduled program against the executor's model. The port
// set of the schedule must be covered by the model's channels for every
// played port; capture ports must reference single-site ports. slots marks
// the instructions of a template's program that Bind rebinds; nil for a
// concrete program.
func (e *Executor) Prepare(sp *pulse.ScheduledProgram, slots map[pulse.Instruction]Slot) (*Program, error) {
	dt, err := e.sampleDt(sp)
	if err != nil {
		return nil, err
	}

	p := &Program{exec: e, dt: dt, makespan: sp.TotalDuration()}
	var buf [8]pulse.Frame
	frames := buf[:0]
	for _, f := range sp.Schedule.Frames() {
		frames = append(frames, *f)
	}
	if slots != nil {
		p.frames = slices.Clone(frames)
	}
	// step applies in, which updates or latches the frame named frame, and
	// keeps it in a template's walk.
	step := func(in pulse.Instruction, frame string) error {
		s, ok := slots[in]
		if !ok {
			s = Slot{Samples: -1, Hz: -1, Phase: -1}
		}
		st := frameStep{in: in, play: len(p.plays) - 1, slot: s,
			frame: slices.IndexFunc(frames, func(f pulse.Frame) bool { return f.ID == frame })}
		if slots != nil {
			p.walk = append(p.walk, st)
		}
		return st.apply(frames, p.plays, nil)
	}
	var last int64
	for _, ti := range sp.Timed {
		// Plays are appended, and frames walked, in time order; Resolve sorts
		// Timed so, keeping program order at equal ticks.
		if ti.Start < last {
			return nil, fmt.Errorf("simq: scheduled program not in start order at tick %d", ti.Start)
		}
		last = ti.Start
		var err error
		switch v := ti.Instr.(type) {
		case *pulse.Play:
			ch, ok := e.Model.Channels[v.Port]
			if !ok {
				return nil, fmt.Errorf("simq: no control channel for port %s", v.Port)
			}
			p.plays = append(p.plays, playEvent{start: ti.Start, samples: v.Waveform.Samples, ch: ch})
			err = step(v, v.Frame)
		case *pulse.ShiftPhase:
			err = step(v, v.Frame)
		case *pulse.SetPhase:
			err = step(v, v.Frame)
		case *pulse.ShiftFrequency:
			err = step(v, v.Frame)
		case *pulse.SetFrequency:
			err = step(v, v.Frame)
		case *pulse.FrameChange:
			err = step(v, v.Frame)
		case *pulse.Capture:
			port, _ := sp.Schedule.Port(v.Port)
			if len(port.Sites) != 1 {
				return nil, fmt.Errorf("simq: capture on multi-site port %s", v.Port)
			}
			for _, c := range p.captures {
				if c.bit == v.Bit {
					return nil, fmt.Errorf("simq: classical bit %d written twice", v.Bit)
				}
			}
			p.captures = append(p.captures, captureEvent{bit: v.Bit, site: port.Sites[0], samples: v.DurationSamples})
		case *pulse.Delay, *pulse.Barrier:
			// Timing-only; already resolved.
		default:
			return nil, fmt.Errorf("simq: unsupported instruction %T", ti.Instr)
		}
		if err != nil {
			return nil, err
		}
	}

	p.ticks = segmentTicks(p.plays, p.makespan)
	slices.SortFunc(p.captures, func(a, b captureEvent) int { return cmp.Compare(a.bit, b.bit) })
	var sites []int
	for _, c := range p.captures {
		p.bits = append(p.bits, c.bit)
		sites = append(sites, c.site)
	}
	if len(p.captures) > 0 {
		p.masks = make([]uint64, e.Model.HilbertDim())
		for idx := range p.masks {
			p.masks[idx] = siteMask(e.Model.Dims, sites, idx)
		}
	}
	return p, nil
}

// Bind returns the program with one job's binding written in: a play with a
// Samples slot plays b.Samples[that], a frame update with an Hz or Phase
// slot takes b.Values[that], and the plays' latched frame state is walked
// again from tick 0 by the steps Prepare took. Slots move no duration, so
// the result shares p's segment ticks and captures; p itself is unchanged.
// p must have been prepared with slots.
func (p *Program) Bind(b Binding) (*Program, error) {
	out := *p
	out.plays = slices.Clone(p.plays)
	var buf [8]pulse.Frame
	frames := append(buf[:0], p.frames...)
	for _, st := range p.walk {
		if err := st.apply(frames, out.plays, &b); err != nil {
			return nil, err
		}
	}
	return &out, nil
}

// apply takes one step of a frame walk: it updates frames[st.frame] by st.in
// or latches the frame's carrier phase (χ0) and detuning into plays[st.play]
// — with the instruction's own values or, given a binding, its values where
// st has a slot.
func (st *frameStep) apply(frames []pulse.Frame, plays []playEvent, b *Binding) error {
	f, s := &frames[st.frame], st.slot
	// value is lit, or the binding's value i where it has one.
	value := func(lit float64, i int) float64 {
		if b != nil && i >= 0 {
			return b.Values[i]
		}
		return lit
	}
	switch v := st.in.(type) {
	case *pulse.Play:
		pl := &plays[st.play]
		if b != nil && s.Samples >= 0 {
			bound := b.Samples[s.Samples]
			if len(bound) != len(pl.samples) {
				return fmt.Errorf("simq: bound play of %d samples in a slot of %d", len(bound), len(pl.samples))
			}
			pl.samples = bound
		}
		pl.chi0 = cmplx.Exp(complex(0, -f.PhaseRad))
		pl.detune = f.FrequencyHz - pl.ch.CarrierFreqHz
	case *pulse.ShiftPhase:
		f.ShiftPhase(value(v.Phase, s.Phase))
	case *pulse.SetPhase:
		f.SetPhase(value(v.Phase, s.Phase))
	case *pulse.ShiftFrequency:
		f.ShiftFrequency(value(v.Hz, s.Hz))
	case *pulse.SetFrequency:
		f.SetFrequency(value(v.Hz, s.Hz))
	case *pulse.FrameChange:
		f.SetFrequency(value(v.Hz, s.Hz))
		f.ShiftPhase(value(v.Phase, s.Phase))
	}
	return nil
}

// Run executes the prepared program once. Everything per run — state,
// counters, the shot sampler's inputs — is built here or reset in the
// pooled engine; the Program is only read.
func (p *Program) Run(opts ExecOptions) (*ExecResult, error) {
	e := p.exec
	if opts.Shots <= 0 {
		opts.Shots = 1024
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x6d717373 // "mqss"
	}

	// The engine follows from the model alone: collapse operators need the
	// density matrix, a closed system the state vector. Either way the
	// evolution is shot-independent: integrate once, then every shot
	// samples the same final state.
	var st *State
	var rho *Density
	if e.openSystem() {
		rho = NewDensity(e.Model.Dims)
	} else {
		st = NewState(e.Model.Dims)
	}
	// The engine stays acquired until sampling ends: the shot runner is
	// part of it.
	eng := e.acquireEngine(p.dt)
	defer e.scratch.Put(eng)
	if err := e.evolve(eng, st, rho, p, opts); err != nil {
		return nil, err
	}

	res := &ExecResult{
		Counts:          map[uint64]int{},
		Shots:           opts.Shots,
		DurationSeconds: float64(p.makespan) * p.dt,
		FinalState:      st,
		FinalDensity:    rho,
		Workers:         1,
		EngineStats:     eng.EngineStats,
	}
	if len(p.captures) == 0 {
		// Still stamp the requested level so callers (and the remote wire)
		// can tell an empty acquisition apart from a level downgrade.
		if opts.Readout != nil {
			res.MeasLevel = opts.Readout.Level
		}
		return res, nil
	}

	roStart := time.Now()
	eng.shots.load(p, st, rho, seed, opts)
	// The caller owns the result; the Program's slice stays its own.
	res.MeasuredBits = slices.Clone(p.bits)
	if err := eng.shots.sampleAll(res); err != nil {
		return nil, err
	}
	res.ReadoutWall = time.Since(roStart)
	res.WorkerBusy = []time.Duration{res.ReadoutWall}
	return res, nil
}

// sampleDt returns the common sample period; mixed sample rates across
// played ports are rejected (real stacks resample instead; our devices
// advertise one clock per device).
func (e *Executor) sampleDt(sp *pulse.ScheduledProgram) (float64, error) {
	var dt, rate float64
	for _, p := range sp.Schedule.Ports() {
		if dt == 0 {
			dt, rate = p.Dt(), p.SampleRateHz
		} else if math.Abs(dt-p.Dt()) > 1e-18 {
			// Diagnostic compares like with like: two rates, not a rate
			// against a period.
			return 0, fmt.Errorf("simq: mixed sample rates (%g vs %g)", rate, p.SampleRateHz)
		}
	}
	if dt == 0 {
		return 0, fmt.Errorf("simq: schedule has no ports")
	}
	return dt, nil
}

// evolve integrates the dynamics over [0, makespan) ticks. Idle segments
// are advanced by one propagator each (cached per distinct segment
// length); driven segments go through the matrix-free fast path. When a
// test sets opts.exact, both use the reference eigendecomposition instead.
func (e *Executor) evolve(eng *fastEngine, st *State, rho *Density, p *Program, opts ExecOptions) error {
	plays, ticks := p.plays, p.ticks
	collapse := e.Model.collapse

	// poll charges `consumed` driven ticks against the cancellation budget
	// and checks Interrupted once interruptPollTicks have accumulated, so
	// a single multi-thousand-sample Play still cancels promptly.
	var sincePoll int64
	poll := func(consumed int64) bool {
		sincePoll += consumed
		if sincePoll >= interruptPollTicks {
			sincePoll = 0
			return opts.Interrupted != nil && opts.Interrupted()
		}
		return false
	}

	for si := 0; si+1 < len(ticks); si++ {
		if opts.Interrupted != nil && opts.Interrupted() {
			return ErrInterrupted
		}
		t0, t1 := ticks[si], ticks[si+1]
		if t0 == t1 {
			continue
		}
		eng.active = activePlays(eng.active[:0], plays, t0)
		if len(eng.active) == 0 {
			// Idle segment: constant drift (+ decoherence). The unitary part
			// is applied exactly in one shot; the dissipator is integrated
			// with capped RK4 steps (its rates are slow, so this is stable).
			if !e.driftFree() {
				u, err := e.propagator(eng, nil, nil, t1-t0, opts.exact)
				if err != nil {
					return err
				}
				eng.apply(u, st, rho)
			}
			if rho != nil && !collapse.empty() {
				segT := float64(t1-t0) * eng.dt
				steps := int(math.Ceil(segT / maxIdleStep))
				if steps < 1 {
					steps = 1
				}
				sub := segT / float64(steps)
				for k := 0; k < steps; k++ {
					eng.dissipate(collapse, rho, sub)
				}
			}
			continue
		}
		var err error
		if opts.exact {
			err = e.drivenExact(eng, st, rho, t0, t1, poll)
		} else {
			err = e.drivenFast(eng, st, rho, t0, t1, poll)
		}
		if err != nil {
			return err
		}
	}
	if st != nil {
		st.Renormalize()
	}
	return nil
}

// segmentTicks returns the boundaries of a run's integration segments in
// ascending order: 0, the makespan, and every play start and end between
// them. Within a segment the set of sounding plays is constant.
func segmentTicks(plays []playEvent, makespan int64) []int64 {
	ticks := append(make([]int64, 0, 2+2*len(plays)), 0, makespan)
	for _, p := range plays {
		for _, t := range [2]int64{p.start, p.start + int64(len(p.samples))} {
			if t > 0 && t < makespan {
				ticks = append(ticks, t)
			}
		}
	}
	slices.Sort(ticks)
	return slices.Compact(ticks)
}

// chiAt evaluates a play's latched drive value χ(t) at an absolute tick:
// the envelope sample rotated by the frame's latched phase and the
// detuning accumulated since t = 0.
func chiAt(p *playEvent, tick int64, dt float64) complex128 {
	s := p.samples[tick-p.start]
	if s == 0 {
		return 0
	}
	if p.detune == 0 {
		return s * p.chi0
	}
	tAbs := float64(tick) * dt
	return s * p.chi0 * cmplx.Exp(complex(0, -2*math.Pi*p.detune*tAbs))
}

// drivenExact steps a driven segment with the reference integrator: one
// eigendecomposition per sample tick (and, on the density engine, the
// same dissipator step as the fast path).
func (e *Executor) drivenExact(eng *fastEngine, st *State, rho *Density, t0, t1 int64, poll func(int64) bool) error {
	active := eng.active
	for tick := t0; tick < t1; tick++ {
		if poll(1) {
			return ErrInterrupted
		}
		eng.chis = eng.chis[:0]
		for i := range active {
			eng.chis = append(eng.chis, chiAt(&active[i], tick, eng.dt))
		}
		u, err := e.propagator(eng, active, eng.chis, 1, true)
		if err != nil {
			return err
		}
		eng.apply(u, st, rho)
		if rho != nil {
			eng.dissipate(e.Model.collapse, rho, eng.dt)
		}
	}
	return nil
}

// drivenFast steps a driven segment with the fast path. Stretches of
// constant χ (square pulses, flat-tops, repeated samples — detected by
// lookahead) are built once, memoized in the propagator cache, and applied
// as dense matrix-vector products; every other tick is
// advanced matrix-free by the scaled-Taylor stepper with zero
// steady-state allocations.
func (e *Executor) drivenFast(eng *fastEngine, st *State, rho *Density, t0, t1 int64, poll func(int64) bool) error {
	collapse, active, dt := e.Model.collapse, eng.active, eng.dt
	for tick := t0; tick < t1; {
		chis := eng.chis[:0]
		allZero := true
		for i := range active {
			c := chiAt(&active[i], tick, dt)
			if c != 0 {
				allZero = false
			}
			chis = append(chis, c)
		}
		eng.chis = chis

		// Lookahead: how many consecutive ticks share this exact χ tuple?
		run := int64(1)
		for tick+run < t1 {
			same := true
			for i := range active {
				if chiAt(&active[i], tick+run, dt) != chis[i] {
					same = false
					break
				}
			}
			if !same {
				break
			}
			run++
		}

		switch {
		case run == 1:
			// Varying envelope: one matrix-free Taylor tick (of the
			// spectrally shifted H; the state engine restores the scalar
			// phase, density conjugation cancels it).
			eng.loadHam(active, chis)
			if rho != nil {
				eng.mat.conjugate(eng.ham, rho.Rho, dt)
				eng.dissipate(collapse, rho, dt)
			} else {
				eng.vec.step(eng.ham, st.Amp, dt)
				if eng.tickPhase != 1 {
					for i := range st.Amp {
						st.Amp[i] *= eng.tickPhase
					}
				}
			}
			if poll(1) {
				return ErrInterrupted
			}
			tick++
		case allZero && e.driftFree():
			// Zero drive over zero drift: nothing evolves (decoherence still
			// applies on the density engine).
			if rho != nil && !collapse.empty() {
				for k := int64(0); k < run; k++ {
					eng.dissipate(collapse, rho, dt)
					if poll(1) {
						return ErrInterrupted
					}
				}
			} else if poll(run) {
				return ErrInterrupted
			}
			tick += run
		case rho != nil && !collapse.empty():
			// Constant stretch with decoherence: the splitting integrator
			// still interleaves the dissipator per tick, but the unitary
			// factor is built once and applied with the stepper's
			// allocation-free conjugation.
			u, err := e.propagator(eng, active, chis, 1, false)
			if err != nil {
				return err
			}
			for k := int64(0); k < run; k++ {
				eng.mat.conjugateWith(u, rho.Rho)
				eng.dissipate(collapse, rho, dt)
				if poll(1) {
					return ErrInterrupted
				}
			}
			tick += run
		default:
			// Constant stretch, unitary dynamics: one propagator for the
			// whole stretch.
			u, err := e.propagator(eng, active, chis, run, false)
			if err != nil {
				return err
			}
			eng.apply(u, st, rho)
			if poll(run) {
				return ErrInterrupted
			}
			tick += run
		}
	}
	return nil
}

// fastEngine is the mutable scratch of one run: the reusable implicit
// Hamiltonian, the Taylor steppers, key and play buffers, the run's
// counters and its shot sampler. Everything it reads besides — sparse operators, collapse
// precompute, propagator cache — belongs to the executor and its model
// and outlives the run.
//
// Engines are pooled per executor (acquireEngine), so a run may start on
// one a previous run — finished, failed or interrupted mid-segment — left
// behind. Nothing carries over: the counters and the play, χ and operator
// lists are reset on acquisition, every numeric buffer (stepper matrices,
// scratch, dense) is written in full before it is read, and the shot
// sampler's load rewrites its inputs — error rates, cumulative
// distribution, seed — before a shot is drawn (its generator is re-seeded
// per shot).
//
// The implicit Hamiltonian is spectrally shifted: the steppers integrate
// H − λI with λ centered on the drift's diagonal, which roughly halves
// ‖H‖·dt for anharmonicity-dominated transmon drifts and with it the
// Taylor sub-step count. The shift is exact — exp(-iH·dt) =
// e^{-iλ·dt}·exp(-i(H−λI)·dt) — and the scalar phase cancels entirely in
// density conjugation, so only the state-vector engine re-applies it (as
// tickPhase per tick). A cached propagator carries it (see propagator).
type fastEngine struct {
	EngineStats
	ham       *tickHam
	vec       *vecStepper // state-vector engine
	mat       *matStepper // density engine; either engine's cache-miss build scratch
	dt        float64     // sample period of the run
	active    []playEvent // plays of the segment in flight
	chis      []complex128
	scratch   []complex128
	dense     *linalg.Matrix // the exact reference's Hamiltonian assembly scratch
	keyBuf    []byte         // propagator-cache key scratch
	tickPhase complex128     // e^{-iλ·dt}, applied per state-vector tick
	shots     shotRunner     // the sampling phase, once the evolution has ended
}

func (e *Executor) newFastEngine(forDensity bool, dt float64) *fastEngine {
	n := e.Model.HilbertDim()
	eng := &fastEngine{ham: &tickHam{drift: e.drift}}
	eng.setDt(e.lam, dt)
	if forDensity {
		eng.mat = newMatStepper(n)
	} else {
		eng.vec = newVecStepper(n)
		eng.scratch = make([]complex128, n)
	}
	return eng
}

// setDt points the engine at a run's sample period.
func (eng *fastEngine) setDt(lam, dt float64) {
	eng.dt, eng.tickPhase = dt, 1
	if lam != 0 {
		eng.tickPhase = cmplx.Exp(complex(0, -lam*dt))
	}
}

// acquireEngine returns scratch for one run at sample period dt: an idle
// engine from the pool, reset, or a new one. The caller Puts it back into
// e.scratch once the evolution has ended, however it ended.
func (e *Executor) acquireEngine(dt float64) *fastEngine {
	eng, _ := e.scratch.Get().(*fastEngine)
	if eng == nil {
		return e.newFastEngine(e.openSystem(), dt)
	}
	eng.EngineStats = EngineStats{}
	eng.ham.reset()
	eng.active, eng.chis, eng.keyBuf = eng.active[:0], eng.chis[:0], eng.keyBuf[:0]
	if eng.dt != dt {
		eng.setDt(e.lam, dt)
	}
	return eng
}

// loadHam rebuilds the implicit tick Hamiltonian for the given active
// plays and their χ values, reusing all backing storage.
func (eng *fastEngine) loadHam(active []playEvent, chis []complex128) {
	eng.ham.reset()
	for i := range active {
		if chis[i] == 0 {
			continue
		}
		ch := active[i].ch
		eng.ham.add(ch.opSparse, complex(math.Pi*ch.RabiHz, 0)*chis[i])
	}
}

// apply advances whichever state the run carries by the dense unitary u
// without allocating.
func (eng *fastEngine) apply(u *linalg.Matrix, st *State, rho *Density) {
	if rho != nil {
		eng.mat.conjugateWith(u, rho.Rho)
		return
	}
	u.MulVecInto(eng.scratch, st.Amp)
	st.Amp, eng.scratch = eng.scratch, st.Amp
}

// dissipate advances rho by one counted dissipator step; a model whose
// collapse channels all have zero rate has none to take.
func (eng *fastEngine) dissipate(cs *collapseSet, rho *Density, dt float64) {
	if cs.empty() {
		return
	}
	eng.DissipatorSteps++
	eng.mat.dissipate(cs, rho.Rho, dt)
}

// propagator returns the dense propagator exp(-i·H·t) over `ticks` samples
// of the constant Hamiltonian defined by (active, chis) — no plays for an
// idle stretch. A fast run consults the executor's cache first and builds
// a miss by the scaled-Taylor series in the engine's mat scratch (made on
// the state-vector engine's first miss and pooled with it), times the
// spectral shift's phase, so cached propagators are exact. The exact
// reference (exact set) assembles the dense Hamiltonian with the true drift
// and runs linalg.ExpI, neither reading nor filling the cache.
func (e *Executor) propagator(eng *fastEngine, active []playEvent, chis []complex128, ticks int64, exact bool) (*linalg.Matrix, error) {
	n, t := e.Model.HilbertDim(), float64(ticks)*eng.dt
	if exact {
		if eng.dense == nil {
			eng.dense = linalg.NewMatrix(n, n)
		}
		h := eng.dense
		copy(h.Data, e.Model.Drift.Data)
		for i := range active {
			active[i].ch.driveTerm(h, chis[i])
		}
		return linalg.ExpI(h, t)
	}
	eng.keyBuf = propKey(eng.keyBuf, eng.dt, active, chis, ticks)
	if u, ok := e.cache.get(eng.keyBuf); ok {
		eng.PropCacheHits++
		return u, nil
	}
	eng.PropCacheMisses++
	if eng.mat == nil {
		eng.mat = newMatStepper(n) // the state-vector engine's build scratch
	}
	eng.loadHam(active, chis)
	u := eng.mat.stretch(eng.ham, t, cmplx.Exp(complex(0, -e.lam*t)))
	e.cache.put(eng.keyBuf, u)
	return u, nil
}

// activePlays appends to dst the plays sounding at tick t.
func activePlays(dst, plays []playEvent, t int64) []playEvent {
	for _, p := range plays {
		if p.start <= t && t < p.start+int64(len(p.samples)) {
			dst = append(dst, p)
		}
	}
	return dst
}
