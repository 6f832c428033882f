package simq

import (
	"cmp"
	"encoding/binary"
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

// ExecOptions configures one run of a prepared program; its plan is fixed.
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
	// Interrupted, when non-nil, is polled between integration segments,
	// every interruptPollTicks (1024) driven samples inside them and between
	// the squarings of a stretch map's build, so even a single very long
	// Play cancels promptly; once it reports true the run
	// aborts with ErrInterrupted. Devices wire it to their job-cancellation
	// state. The sampler also polls it every 64 shots, so a cancelled run
	// stops drawing within that many.
	Interrupted func() bool
	// Deprecated: ShotWorkers is ignored; every run draws its shots serially
	// on the calling goroutine. It is kept only because the benchmark
	// compiles against it.
	ShotWorkers int
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

	busy [1]time.Duration // WorkerBusy's backing array, part of the result
	// bits backs MeasuredBits when a run has at most len(bits) captures; the
	// array keeps the result in the 208-byte size class.
	bits [4]int
}

// EngineStats is what a run did that a warm executor saves or a closed
// system never does: a job on a warm device shows hits and no misses.
type EngineStats struct {
	// PropCacheHits and PropCacheMisses count look-ups of the executor's
	// propagator cache and stretch maps; every miss is one build. At
	// Hilbert dimension 2 only stretch maps are looked up, so a one-site
	// d = 2 device's gates read 0 on both.
	PropCacheHits, PropCacheMisses int64
	// DissipatorSteps counts RK4 steps of the density engine's dissipator,
	// each one apply of a memoized step map.
	DissipatorSteps int64
}

// Executor integrates scheduled pulse programs against a SystemModel. It is
// the simulated analogue of the vendor "hardware runtime" that QIR pulse
// intrinsics link against (paper, Section 5.4).
//
// An Executor holds everything that is a function of the model and not of
// the program: the spectrally shifted sparse drift (per site, too, when it
// is separable, with the channels local to one site), the propagator cache
// (used at n ≥ 3 only), the density engine's stretch maps and the
// dissipator's step maps. All of it is immutable or locked, so one Executor
// serves any number of Runs, concurrently; a run's mutable scratch comes
// from the executor's pool and goes back when the run ends. Prepare lowers
// a program into a plan for it (plan.go), which Program.Run walks.
type Executor struct {
	Model *SystemModel

	props *memo[*linalg.Matrix] // constant-stretch propagators at n ≥ 3, by propKey
	maps  *memo[[]float64]      // open-system stretch maps S^run, by propKey
	steps *memo[*stepMap]       // dissipator step maps, by the step size's bits
	// drift is the sparse view of Drift − λI (nil when that is zero) and
	// lam the spectral shift λ in rad/s; see fastEngine. When Drift − λI
	// has nothing off its diagonal (every preset), driftDiag holds that
	// diagonal, and an idle stretch's propagator is exact without a series.
	drift     *linalg.Sparse
	lam       float64
	driftDiag []float64
	// On the density engine of a model whose drift is separable (siteTerms),
	// sites holds each site's local drift and locals every channel local to
	// one site, so a tick that drives only those is applied site by site
	// (kindSiteTick); both are nil otherwise.
	sites  []siteTerm
	locals map[*ControlChannel]localChannel
	// scratch holds idle *fastEngine values. They are sized by the model,
	// so one executor's engines fit every program it runs.
	scratch sync.Pool
}

// NewExecutor wraps a system model.
func NewExecutor(m *SystemModel) *Executor {
	e := &Executor{Model: m, props: newMemo[*linalg.Matrix](), maps: newMemo[[]float64](), steps: newMemo[*stepMap]()}
	if e.openSystem() {
		e.sites, e.locals = siteTerms(m)
	}
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
	sp := linalg.NewSparse(shifted)
	if sp.NNZ() > 0 {
		e.drift = sp
	}
	if slices.Equal(sp.RowIdx, sp.ColIdx) {
		e.driftDiag = make([]float64, n)
		for i := range e.driftDiag {
			e.driftDiag[i] = real(shifted.At(i, i))
		}
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
// channel, the evolution plan (plan.go), the captures in classical-bit
// order, the makespan and the sample period. It is immutable, so any number
// of runs, concurrent or not, may share it; it holds the inputs of the
// evolution, never its output.
type Program struct {
	exec  *Executor
	plays []playEvent // by start tick, simultaneous plays in program order
	// segs are the integration segments, on their plays (indices into
	// plays) and steps the plan over them.
	segs     []segment
	on       []int32
	steps    []step
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

// frameStep is one step of a program's frame walk: in, an update of
// frames[frame] or the play latching it into plays[play], and the slot of
// in (all -1 when nothing rebinds it).
type frameStep struct {
	in    pulse.Instruction
	frame int
	play  int
	slot  pulse.Slot
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
// played port; capture ports must reference single-site ports. slots, which
// the link returns for a template (qir.BuildSchedule), mark the plays and
// frame updates Bind rebinds; nil for a concrete program.
func (e *Executor) Prepare(sp *pulse.ScheduledProgram, slots map[pulse.Instruction]pulse.Slot) (*Program, error) {
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
			s = pulse.Slot{Samples: -1, Hz: -1, Phase: -1}
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
		case *pulse.FrameUpdate:
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

	p.segments()
	p.plan(nil)
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

// Bind returns the program with one point written in: a play with a
// Samples slot plays b.Samples[that], a frame update with an Hz or Phase
// slot takes b.Values[that], and the plays' latched frame state is walked
// again from tick 0 by the steps Prepare took. Slots move no duration, so
// the result shares p's segments and captures; its plan is planned again
// over them, sharing p's steps while they are equal. p itself is unchanged.
func (p *Program) Bind(b pulse.Binding) (*Program, error) {
	out := *p
	out.plays = slices.Clone(p.plays)
	var buf [8]pulse.Frame
	frames := append(buf[:0], p.frames...)
	for _, st := range p.walk {
		if err := st.apply(frames, out.plays, &b); err != nil {
			return nil, err
		}
	}
	out.plan(p.steps)
	return &out, nil
}

// apply takes one step of a frame walk: it updates frames[st.frame] by st.in
// or latches the frame's carrier phase (χ0) and detuning into plays[st.play]
// — with the instruction's own values or, given a binding, its values where
// st has a slot.
func (st *frameStep) apply(frames []pulse.Frame, plays []playEvent, b *pulse.Binding) error {
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
	case *pulse.FrameUpdate:
		f.Apply(v.Kind, value(v.Hz, s.Hz), value(v.Phase, s.Phase))
	}
	return nil
}

// Run executes the prepared program once. Everything per run — state,
// counters, the shot sampler's inputs — is built here or reset in the
// pooled engine; the Program is only read.
func (p *Program) Run(opts ExecOptions) (*ExecResult, error) {
	res, _, _, err := p.run(opts)
	return res, err
}

// run is Run, also handing back the state the run evolved to: st on the
// state-vector engine (a model without collapse operators), rho, exactly
// Hermitian, on the density engine (a model with them), the other nil.
func (p *Program) run(opts ExecOptions) (res *ExecResult, st *State, rho *Density, err error) {
	e := p.exec
	if opts.Shots <= 0 {
		opts.Shots = 1024
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x6d717373 // "mqss"
	}

	// The evolution is shot-independent: integrate once, then every shot
	// samples the same final state.
	if e.openSystem() {
		rho = NewDensity(e.Model.Dims)
	} else {
		st = NewState(e.Model.Dims)
	}
	// The engine stays acquired until sampling ends: the shot runner is
	// part of it.
	eng := e.acquireEngine(p.dt)
	defer e.scratch.Put(eng)
	r := runState{eng: eng, st: st, rho: rho, step: e.dissipatorStep(eng, eng.dt), interrupted: opts.Interrupted}
	if err := r.walk(p); err != nil {
		return nil, nil, nil, err
	}
	if st != nil {
		st.Renormalize()
	}

	res = &ExecResult{
		Counts:          map[uint64]int{},
		Shots:           opts.Shots,
		DurationSeconds: float64(p.makespan) * p.dt,
		Workers:         1,
		EngineStats:     eng.EngineStats,
	}
	if len(p.captures) == 0 {
		// Still stamp the requested level so callers (and the remote wire)
		// can tell an empty acquisition apart from a level downgrade.
		if opts.Readout != nil {
			res.MeasLevel = opts.Readout.Level
		}
		return res, st, rho, nil
	}

	roStart := time.Now()
	eng.shots.load(p, st, rho, seed, opts)
	// The caller owns the result; the Program's slice stays its own.
	if len(p.bits) <= len(res.bits) {
		res.MeasuredBits = res.bits[:len(p.bits):len(p.bits)]
		copy(res.MeasuredBits, p.bits)
	} else {
		res.MeasuredBits = slices.Clone(p.bits)
	}
	if err := eng.shots.sampleAll(res); err != nil {
		return nil, nil, nil, err
	}
	res.ReadoutWall = time.Since(roStart)
	res.busy[0] = res.ReadoutWall
	res.WorkerBusy = res.busy[:]
	return res, st, rho, nil
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

// fastEngine is the mutable scratch of one run: the reusable implicit
// Hamiltonian, the Taylor steppers (per site, too, on a separable density
// engine), key and play buffers, the run's counters and its shot sampler.
// Engines are pooled per executor (acquireEngine), so a run may start on
// one a previous run — finished, failed or interrupted — left behind.
// Nothing carries over: counters are reset on acquisition, lists where they
// are filled, every numeric buffer is written in full before it is read,
// and the sampler's load rewrites its inputs before a shot is drawn.
//
// The implicit Hamiltonian is spectrally shifted: the steppers integrate
// H − λI with λ centered on the drift's diagonal, which roughly halves
// ‖H‖·dt for transmon drifts and with it the Taylor sub-step count. The
// shift is exact — exp(-iH·dt) = e^{-iλ·dt}·exp(-i(H−λI)·dt) — and density
// conjugation cancels the phase, so only the state-vector engine re-applies
// it (tickPhase, per tick); a stretch's propagator carries it.
type fastEngine struct {
	EngineStats
	ham       *tickHam
	vec       *vecStepper   // state-vector engine
	mat       *matStepper   // density engine; either engine's cache-miss build scratch
	sites     []siteStepper // a separable density engine's per-site tick scratch
	dt        float64       // sample period of the run
	active    []playEvent   // plays of the segment in flight
	chis      []complex128
	scratch   []complex128
	keyBuf    []byte     // propagator-cache key scratch
	tickPhase complex128 // e^{-iλ·dt}, applied per state-vector tick
	shots     shotRunner // the sampling phase, once the evolution has ended
}

func (e *Executor) newFastEngine(forDensity bool, dt float64) *fastEngine {
	n := e.Model.HilbertDim()
	eng := &fastEngine{ham: &tickHam{drift: e.drift}}
	if forDensity {
		eng.mat = newMatStepper(n)
		eng.sites = e.newSiteSteppers()
	} else {
		eng.vec = newVecStepper(n)
		eng.scratch = make([]complex128, n)
	}
	eng.setDt(e, dt)
	return eng
}

// setDt points the engine at a run's sample period: the state-vector
// tick's scalar phase and the factors of undriven sites.
func (eng *fastEngine) setDt(e *Executor, dt float64) {
	eng.dt, eng.tickPhase = dt, 1
	if e.lam != 0 {
		eng.tickPhase = cmplx.Exp(complex(0, -e.lam*dt))
	}
	for s := range eng.sites {
		for k, d := range e.sites[s].diag {
			eng.sites[s].idle[k] = cmplx.Exp(complex(0, -d*dt))
		}
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
	if eng.dt != dt {
		eng.setDt(e, dt)
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

// dissipate advances rho by one counted dissipator step of the map step;
// a nil step (a closed system, or collapse channels that all have zero
// rate) takes none.
func (eng *fastEngine) dissipate(step *stepMap, rho *Density) {
	if step == nil {
		return
	}
	eng.DissipatorSteps++
	eng.mat.dissipate(step, rho.Rho)
}

// dissipatorStep returns the dissipator's step map M(h) from the
// executor's memo, building it on a miss, or nil when the model has
// nothing to dissipate. The key is h's bits, written into the engine's
// key scratch.
func (e *Executor) dissipatorStep(eng *fastEngine, h float64) *stepMap {
	cs := e.Model.collapse
	if cs.empty() {
		return nil
	}
	eng.keyBuf = binary.LittleEndian.AppendUint64(eng.keyBuf[:0], math.Float64bits(h))
	if m, ok := e.steps.get(eng.keyBuf); ok {
		return m
	}
	m := cs.stepMap(h)
	e.steps.put(eng.keyBuf, m)
	return m
}

// propagator returns exp(-i·H·t) over ticks samples of the constant
// Hamiltonian (active, chis); an idle stretch has no plays. At n = 2 it is
// the closed form built in the engine's mat scratch (twoLevelStretch),
// valid until the engine's next build. Above n = 2 it comes from the
// executor's cache, a miss built in that scratch times the spectral shift's
// phase: by matStepper.stretch, or for an idle stretch under a diagonal
// drift as diag(e^{−i·d_j·t})·e^{−iλt}, unitary however long it is. The
// state-vector engine makes its mat scratch on its first build.
func (e *Executor) propagator(eng *fastEngine, active []playEvent, chis []complex128, ticks int64) *linalg.Matrix {
	n, t := e.Model.HilbertDim(), float64(ticks)*eng.dt
	if n == 2 {
		if eng.mat == nil {
			eng.mat = newMatStepper(n) // the state-vector engine's build scratch
		}
		return e.twoLevelStretch(eng, active, chis, t)
	}
	eng.keyBuf = propKey(eng.keyBuf, eng.dt, active, chis, ticks)
	if u, ok := e.props.get(eng.keyBuf); ok {
		eng.PropCacheHits++
		return u
	}
	eng.PropCacheMisses++
	phase := cmplx.Exp(complex(0, -e.lam*t))
	var u *linalg.Matrix
	if len(active) == 0 && e.driftDiag != nil {
		// An idle stretch under a diagonal drift: exact at any length.
		u = linalg.NewMatrix(n, n)
		for j, d := range e.driftDiag {
			u.Data[j*n+j] = cmplx.Exp(complex(0, -d*t)) * phase
		}
	} else {
		if eng.mat == nil {
			eng.mat = newMatStepper(n)
		}
		eng.loadHam(active, chis)
		u = eng.mat.stretch(eng.ham, t, phase)
	}
	e.props.put(eng.keyBuf, u)
	return u
}

// twoLevelStretch fills the engine's 2×2 scratch eng.mat.u with
// exp(-i·H·t) of the constant Hamiltonian (active, chis): the closed form
// (twoLevel) times its phase e^{-iμt} and the spectral shift's e^{-iλt},
// exact at any length, and returns it. When μ and λ are both 0 (a drive
// over no drift) there is no phase to apply.
//
//mqss:hotloop
func (e *Executor) twoLevelStretch(eng *fastEngine, active []playEvent, chis []complex128, t float64) *linalg.Matrix {
	eng.loadHam(active, chis)
	u := eng.mat.u
	mu := eng.mat.twoLevel(eng.ham, t, u)
	if mu == 0 && e.lam == 0 {
		return u
	}
	sm, cm := math.Sincos(mu * t)
	sl, cl := math.Sincos(-e.lam * t) // e^{-iλt}, as cmplx.Exp spells it
	p := complex(cl, sl) * complex(cm, -sm)
	for i := range u.Data {
		u.Data[i] *= p
	}
	return u
}

// stretchMap returns the density engine's map S^run of a constant stretch
// of run ticks under (active, chis), whose per-tick dissipator step is
// step: from the executor's memo, or built in the engine's scratch on a
// miss. A look-up counts as a propagator-cache hit or miss. A build that
// interrupted stops returns nil and stores nothing.
func (e *Executor) stretchMap(eng *fastEngine, active []playEvent, chis []complex128, step *stepMap, run int64, interrupted func() bool) []float64 {
	eng.keyBuf = propKey(eng.keyBuf, eng.dt, active, chis, run)
	if m, ok := e.maps.get(eng.keyBuf); ok {
		eng.PropCacheHits++
		return m
	}
	eng.PropCacheMisses++
	eng.loadHam(active, chis)
	m := eng.mat.stretchMap(eng.ham, eng.dt, step, run, interrupted)
	if m != nil {
		e.maps.put(eng.keyBuf, m)
	}
	return m
}
