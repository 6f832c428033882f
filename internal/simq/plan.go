package simq

import (
	"math"
	"slices"
)

// This file holds a prepared program's evolution plan: Prepare (and Bind,
// per binding) lowers the plays into steps, choosing every path of the
// integrator from the program and the model alone, and Run walks them.

// stepKind is the path of the integrator a step takes:
//   - kindIdle: a segment with no play sounding, one propagator of the drift
//     (none over zero drift), then the dissipator's sub-steps;
//   - kindSiteTick: varying ticks that drive only channels local to one site
//     of a separable density model, each applied site by site;
//   - kindDenseTick: varying ticks, each one Taylor tick of the whole system;
//   - kindMap: a long constant stretch with decoherence that useStretchMap
//     admits, applied as one memoized stretch map;
//   - kindZero: a constant stretch of zero drive over zero drift, where only
//     the dissipator acts, per tick;
//   - kindOpen: any other constant stretch with decoherence, one tick's
//     propagator, then per tick the conjugation by it and a dissipator step;
//   - kindClosed: a constant stretch with nothing to dissipate, one
//     propagator for the whole stretch.
type stepKind uint8

const (
	kindIdle stepKind = iota
	kindSiteTick
	kindDenseTick
	kindMap
	kindZero
	kindOpen
	kindClosed
	numStepKinds
)

// StepKinds names the kinds of a plan's steps, indexed as Program.Ticks
// counts them.
var StepKinds = [numStepKinds]string{"idle", "site_tick", "dense_tick", "stretch_map", "zero_drive", "open_stretch", "closed_stretch"}

// step is one path of the integrator over the ticks [t0, t0+n) of the
// program's segment segs[seg], whose sounding plays it takes. A plan's
// steps tile [0, makespan) in order, the first of each segment marked.
type step struct {
	kind  stepKind
	first bool
	seg   int32
	t0, n int64
}

// segment is one integration segment: the ticks [t0, t1) between
// consecutive play boundaries, within which the sounding plays, on[lo:hi]
// of the program's plays, do not change.
type segment struct {
	t0, t1 int64
	lo, hi int32
}

// Ticks returns how many of the program's ticks each kind of step covers,
// indexed as StepKinds.
func (p *Program) Ticks() (out [numStepKinds]int64) {
	for _, s := range p.steps {
		out[s.kind] += s.n
	}
	return out
}

// segments cuts p's makespan into its integration segments at 0, the
// makespan and every play start and end, listing each one's plays in p.on.
func (p *Program) segments() {
	ticks := append(make([]int64, 0, 2+2*len(p.plays)), 0, p.makespan)
	for _, pe := range p.plays {
		for _, t := range [2]int64{pe.start, pe.start + int64(len(pe.samples))} {
			if t > 0 && t < p.makespan {
				ticks = append(ticks, t)
			}
		}
	}
	slices.Sort(ticks)
	ticks = slices.Compact(ticks)
	n := 0 // the plays sounding at each segment's start, summed
	for _, pe := range p.plays {
		a, _ := slices.BinarySearch(ticks, pe.start)
		b, _ := slices.BinarySearch(ticks, pe.start+int64(len(pe.samples)))
		n += b - a
	}
	p.on, p.segs = make([]int32, 0, n), make([]segment, 0, len(ticks)-1)
	for si := 0; si+1 < len(ticks); si++ {
		lo := len(p.on)
		for i, pe := range p.plays {
			if pe.start <= ticks[si] && ticks[si] < pe.start+int64(len(pe.samples)) {
				p.on = append(p.on, int32(i))
			}
		}
		p.segs = append(p.segs, segment{ticks[si], ticks[si+1], int32(lo), int32(len(p.on))})
	}
}

// plan lowers p's plays into its plan over its segments. tpl is the plan
// of a program with the same segments (a bound program's template's),
// whose steps p shares while they are equal; nil for none.
func (p *Program) plan(tpl []step) {
	pl := planner{p: p, tpl: tpl}
	for i := range p.segs {
		pl.segment(int32(i))
	}
	if p.steps = pl.steps; p.steps == nil {
		p.steps = tpl[:pl.n:pl.n]
	}
}

// planner lowers a program's segments into steps. While the steps it plans
// equal tpl's, it shares them; the first that differs gets a slice of its
// own, with tpl's equal prefix copied in.
type planner struct {
	p     *Program
	tpl   []step
	steps []step // nil while the plan shares tpl
	n     int    // steps planned
}

func (pl *planner) emit(s step) {
	if pl.steps == nil {
		if pl.n < len(pl.tpl) && pl.tpl[pl.n] == s {
			pl.n++
			return
		}
		// A segment plans up to about three steps: a symmetric envelope's
		// varying ticks around its equal middle pair.
		pl.steps = append(make([]step, 0, max(len(pl.tpl), 3*len(pl.p.segs))), pl.tpl[:pl.n]...)
	}
	pl.steps = append(pl.steps, s)
	pl.n++
}

// segment plans the ticks of segment seg: one idle step when no play
// sounds, else the stretches of ticks that share one exact χ tuple. A
// stretch of one tick is a varying tick, merged into one step with its
// neighbours of the same kind; a longer one is a constant stretch, whose
// path follows from its length, its χ and the model.
func (pl *planner) segment(seg int32) {
	p, e, sg := pl.p, pl.p.exec, pl.p.segs[seg]
	s := step{kind: kindIdle, first: true, seg: seg, t0: sg.t0, n: sg.t1 - sg.t0}
	if sg.lo == sg.hi {
		pl.emit(s)
		return
	}
	on, open := p.on[sg.lo:sg.hi], !e.Model.collapse.empty()
	var buf, nextBuf [8]complex128
	chis, next := p.chis(buf[:0], on, sg.t0), nextBuf[:0]
	var run int64
	for tick := sg.t0; tick < sg.t1; tick += run {
		// How many ticks share this χ tuple? next ends as the one after them.
		for run = 1; tick+run < sg.t1; run++ {
			if next = p.chis(next[:0], on, tick+run); !slices.Equal(next, chis) {
				break
			}
		}
		kind := kindClosed
		switch {
		case run == 1:
			kind = kindDenseTick
			if e.factors(p.plays, on, chis) {
				kind = kindSiteTick
			}
		case open && useStretchMap(e.Model.HilbertDim(), run):
			kind = kindMap
		case e.driftFree() && !slices.ContainsFunc(chis, func(c complex128) bool { return c != 0 }):
			kind = kindZero
		case open:
			kind = kindOpen
		}
		chis, next = next, chis
		if run == 1 && kind == s.kind {
			s.n++
			continue
		}
		if tick > sg.t0 {
			pl.emit(s)
		}
		s = step{kind: kind, first: tick == sg.t0, seg: seg, t0: tick, n: run}
	}
	pl.emit(s)
}

// chis appends to dst the χ of the plays on at tick.
func (p *Program) chis(dst []complex128, on []int32, tick int64) []complex128 {
	for _, i := range on {
		dst = append(dst, chiAt(&p.plays[i], tick, p.dt))
	}
	return dst
}

// factors reports whether a tick of the plays on at chis factors site by
// site: the model is separable and every play with χ ≠ 0 drives a channel
// local to one site.
func (e *Executor) factors(plays []playEvent, on []int32, chis []complex128) bool {
	for k, i := range on {
		if _, ok := e.locals[plays[i].ch]; !ok && chis[k] != 0 {
			return false
		}
	}
	return e.sites != nil
}

// runState is one run's walk of a plan: the engine, the state it evolves
// (st or rho), the dissipator's step map for one tick (nil when nothing
// dissipates), ExecOptions.Interrupted and the ticks since the last poll.
type runState struct {
	eng         *fastEngine
	st          *State
	rho         *Density
	step        *stepMap
	interrupted func() bool
	sincePoll   int64
}

// poll charges consumed ticks; once interruptPollTicks have accumulated, it
// flushes ρ's subnormal parts and reports whether the run is interrupted.
//
//mqss:hotloop
func (r *runState) poll(consumed int64) bool {
	r.sincePoll += consumed
	if r.sincePoll < interruptPollTicks {
		return false
	}
	r.sincePoll = 0
	if r.rho != nil {
		flushSubnormals(r.rho.Rho)
	}
	return r.interrupted != nil && r.interrupted()
}

// walk integrates the dynamics over [0, makespan) by p's plan, checking
// Interrupted and loading the plays before each segment, with one switch on
// the kind of each step. Once the run is interrupted it returns
// ErrInterrupted.
//
//mqss:hotloop
func (r *runState) walk(p *Program) error {
	e, eng, st, rho := p.exec, r.eng, r.st, r.rho
	var on []int32 // the plays of the segment in flight
	for i := range p.steps {
		s := &p.steps[i]
		if s.first {
			if r.interrupted != nil && r.interrupted() {
				return ErrInterrupted
			}
			on = eng.load(p, s)
		}
		switch s.kind {
		case kindIdle:
			if !e.driftFree() {
				eng.apply(e.propagator(eng, nil, nil, s.n), st, rho)
			}
			eng.dissipateIdle(e, r.step, s.n, rho)
		case kindSiteTick, kindDenseTick:
			for tick := s.t0; tick < s.t0+s.n; tick++ {
				eng.chis = p.chis(eng.chis[:0], on, tick)
				switch {
				case rho == nil:
					eng.loadHam(eng.active, eng.chis)
					eng.vec.step(eng.ham, st.Amp, eng.dt)
					if eng.tickPhase != 1 {
						for j := range st.Amp {
							st.Amp[j] *= eng.tickPhase
						}
					}
				case s.kind == kindSiteTick:
					e.conjugateSites(eng, eng.active, eng.chis, rho.Rho)
				default:
					eng.loadHam(eng.active, eng.chis)
					eng.mat.propagator(eng.ham, eng.dt)
					eng.mat.conjugateWith(eng.mat.u, rho.Rho)
				}
				eng.dissipate(r.step, rho)
				if r.poll(1) {
					return ErrInterrupted
				}
			}
		case kindMap:
			eng.chis = p.chis(eng.chis[:0], on, s.t0)
			m := e.stretchMap(eng, eng.active, eng.chis, r.step, s.n, r.interrupted)
			if m == nil {
				return ErrInterrupted
			}
			eng.mat.applyMap(m, rho.Rho)
			eng.DissipatorSteps += s.n
			if r.poll(s.n) {
				return ErrInterrupted
			}
		case kindZero:
			if r.step == nil {
				if r.poll(s.n) {
					return ErrInterrupted
				}
				continue
			}
			for range s.n {
				eng.dissipate(r.step, rho)
				if r.poll(1) {
					return ErrInterrupted
				}
			}
		case kindOpen:
			eng.chis = p.chis(eng.chis[:0], on, s.t0)
			u := e.propagator(eng, eng.active, eng.chis, 1)
			for range s.n {
				eng.mat.conjugateWith(u, rho.Rho)
				eng.dissipate(r.step, rho)
				if r.poll(1) {
					return ErrInterrupted
				}
			}
		case kindClosed:
			eng.chis = p.chis(eng.chis[:0], on, s.t0)
			eng.apply(e.propagator(eng, eng.active, eng.chis, s.n), st, rho)
			if r.poll(s.n) {
				return ErrInterrupted
			}
		}
	}
	return nil
}

// dissipateIdle integrates the dissipator over n idle ticks, unless step
// (one tick's) is nil, in capped RK4 sub-steps of one size — the collapse
// rates are slow — flushing ρ's subnormal parts every interruptPollTicks.
func (eng *fastEngine) dissipateIdle(e *Executor, step *stepMap, n int64, rho *Density) {
	if step == nil {
		return
	}
	segT := float64(n) * eng.dt
	steps := max(int(math.Ceil(segT/maxIdleStep)), 1)
	sub := e.dissipatorStep(eng, segT/float64(steps))
	for k := 1; k <= steps; k++ {
		eng.dissipate(sub, rho)
		if k%interruptPollTicks == 0 {
			flushSubnormals(rho.Rho)
		}
	}
}

// load points the engine at the plays of the segment s opens and returns
// their indices: eng.active holds them in program order and eng.chis has
// room for one χ each.
func (eng *fastEngine) load(p *Program, s *step) []int32 {
	sg := &p.segs[s.seg]
	eng.active = eng.active[:0]
	for _, i := range p.on[sg.lo:sg.hi] {
		eng.active = append(eng.active, p.plays[i])
	}
	eng.chis = slices.Grow(eng.chis[:0], len(eng.active))
	return p.on[sg.lo:sg.hi]
}
