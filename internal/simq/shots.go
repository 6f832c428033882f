package simq

import (
	"math/rand"
	"slices"

	"mqsspulse/internal/readout"
)

// This file implements the sampling phase: per-shot deterministic RNG
// streams and the per-shot pipeline (projective draw → readout error or IQ
// synthesis) over the final state the engine evolved once. Shots are drawn
// one after another on the goroutine that runs the job. The determinism
// contract: every shot's outcome is a pure function of (job seed, shot
// index) and all aggregation happens in shot order.

const (
	// shotStreamGamma is the SplitMix64 golden-ratio increment.
	shotStreamGamma = 0x9E3779B97F4A7C15
	// serialShotPoll is how many shots a run draws between polls of
	// Interrupted.
	serialShotPoll = 64
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche permutation
// of 64-bit words.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// streamBase mixes the job seed once into the base every shot's stream
// state is derived from.
func streamBase(jobSeed int64) uint64 { return mix64(uint64(jobSeed)) }

// shotStreamState derives the initial RNG stream state of shot k from
// the job's stream base. The argument of mix64 is injective in k for a
// fixed base (the gamma multiplier is odd, hence invertible mod 2⁶⁴) and
// mix64 itself is a bijection, so no two shots of one job ever receive
// the same stream state — the aliasing property test pins this across
// the shot index space. Plain math/rand.NewSource is NOT usable here: it
// reduces seeds mod 2³¹−1, which would alias 64-bit derived seeds.
func shotStreamState(base uint64, shot int) uint64 {
	return mix64(base + (uint64(shot)+1)*shotStreamGamma)
}

// shotSource is a SplitMix64 rand.Source64. Each shot starts its own
// stream at shotStreamState, so the draws a shot sees depend on its index
// alone, not on the shots drawn before it. Distinct streams are windows of one
// 2⁶⁴-cycle sequence at mixed (effectively random) offsets; with ≤ 2³¹
// draws per shot the overlap probability is negligible (< 2⁻³²·shots²).
type shotSource struct{ state uint64 }

// Uint64 advances the SplitMix64 state and returns the mixed output.
func (s *shotSource) Uint64() uint64 {
	s.state += shotStreamGamma
	return mix64(s.state)
}

// Int63 returns the top 63 bits of Uint64, as rand.Source requires.
func (s *shotSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed resets the stream state.
func (s *shotSource) Seed(seed int64) { s.state = uint64(seed) }

// Float64 returns a uniform variate in [0, 1) by math/rand's formula: Int63
// over 2⁶³, drawn again when that rounds to 1. A shot that draws here sees
// exactly the variates a rand.Rand over the same stream would give it,
// without an interface call per variate.
//
//mqss:hotloop
func (s *shotSource) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// eachShot runs fn for every shot index in [0, shots), in shot order, on
// the calling goroutine. It polls interrupted before every serialShotPoll-th
// shot, so a cancel lands within that many shots and no shot runs after the
// poll that sees it.
func eachShot(shots int, interrupted func() bool, fn func(shot int)) error {
	for k := 0; k < shots; k++ {
		if interrupted != nil && k%serialShotPoll == 0 && interrupted() {
			return ErrInterrupted
		}
		fn(k)
	}
	return nil
}

// shotRunner is the sampling phase of a run: the final probability
// distribution every shot samples, the readout configuration, and the run's
// one generator. It lives in the pooled fastEngine, so its buffers and
// generator outlive the run; load writes every field a run reads.
type shotRunner struct {
	captures []captureEvent
	masks    []uint64      // the program's measured bitmask per basis index
	model    *ReadoutModel // non-nil for kerneled/raw synthesis
	// errs holds each capture's assignment-error rates (p01, p10), read
	// from ExecOptions.SiteError once per run; empty for kerneled/raw.
	errs        [][2]float64
	dt          float64
	base        uint64 // streamBase of the job seed
	shots       int
	interrupted func() bool

	// The shared cumulative distribution of the evolved state.
	cum   []float64
	total float64
	// tally counts the shots of each outcome when 2^len(captures) ≤
	// len(cum); see sampleAll.
	tally []int

	// A kerneled or raw shot hands its stream to src after the projective
	// draw, and rng draws the IQ synthesis's normals from there. Nothing in
	// the pipeline calls Rand.Read — the only rand.Rand method with state
	// outside the source — so re-pointing the source alone gives a shot
	// exactly the draws a fresh rand.New would, and one generator serves
	// every run.
	src shotSource
	rng *rand.Rand
}

// load points the runner at a run of p, whose captures are non-empty.
// Exactly one of st and rho carries the evolved final state.
func (r *shotRunner) load(p *Program, st *State, rho *Density, seed int64, opts ExecOptions) {
	r.captures, r.masks, r.dt = p.captures, p.masks, p.dt
	r.base, r.shots, r.interrupted = streamBase(seed), opts.Shots, opts.Interrupted
	r.model, r.errs = nil, r.errs[:0]
	if m := opts.Readout; m != nil && m.Level != readout.LevelDiscriminated {
		r.model = m
	} else {
		for _, c := range p.captures {
			var e [2]float64
			if opts.SiteError != nil {
				e[0], e[1] = opts.SiteError(c.site)
			}
			r.errs = append(r.errs, e)
		}
	}
	// The evolved state's probabilities, made cumulative in place.
	r.cum = r.cum[:0]
	if rho != nil {
		for i := range rho.Rho.Rows {
			r.cum = append(r.cum, real(rho.Rho.At(i, i)))
		}
	} else {
		for _, a := range st.Amp {
			r.cum = append(r.cum, real(a)*real(a)+imag(a)*imag(a))
		}
	}
	r.total = buildCum(r.cum, r.cum)
	if r.rng == nil {
		r.rng = rand.New(&r.src)
	}
}

// runShot draws shot k — one projective draw, then per-capture readout error
// or IQ synthesis, all from the shot's own RNG stream — and returns its
// outcome: bit i is capture i's discriminated bit. At kerneled and raw levels
// it writes the shot's point per capture into pts and, when trs is non-nil,
// its trace into trs.
func (r *shotRunner) runShot(k int, pts []readout.IQ, trs [][]complex128) uint64 {
	src := shotSource{shotStreamState(r.base, k)}
	raw := r.masks[drawIndex(r.cum, r.total, src.Float64())]
	if r.model == nil {
		return r.misread(raw, &src)
	}
	r.src = src
	var out uint64
	for i, c := range r.captures {
		rec := r.model.synthesizeShot(r.rng, c.site, (raw>>uint(i))&1, c.samples, float64(c.samples)*r.dt, trs != nil)
		pts[i] = rec.point
		if trs != nil {
			trs[i] = rec.trace
		}
		out |= rec.bit << uint(i)
	}
	return out
}

// misread applies the captures' assignment errors to the true outcome raw:
// bit i flips with capture i's rate for its value (p01 from 0, p10 from 1),
// and a variate is drawn from src only where that rate is positive.
//
//mqss:hotloop
func (r *shotRunner) misread(raw uint64, src *shotSource) uint64 {
	for i, e := range r.errs {
		if p := e[(raw>>uint(i))&1]; p > 0 && src.Float64() < p {
			raw ^= 1 << uint(i)
		}
	}
	return raw
}

// classical translates an outcome (bit i is capture i's bit) into its
// classical-bit mask.
func (r *shotRunner) classical(out uint64) uint64 {
	var mask uint64
	for i, c := range r.captures {
		mask |= ((out >> uint(i)) & 1) << uint(c.bit)
	}
	return mask
}

// sampleAll draws every shot in shot order and fills res: counts, and the
// IQ/raw records per the model's return mode. Averaged records are running
// sums each shot is added into as it is drawn, so no per-shot record is
// kept and the sums see the shots in one fixed order. When the outcomes fit
// a slice no longer than cum (2^len(captures) ≤ len(cum)), shots are counted
// into the pooled dense tally and res.Counts is written once per outcome
// seen; otherwise each shot is counted into res.Counts.
func (r *shotRunner) sampleAll(res *ExecResult) error {
	wantIQ := r.model != nil
	wantRaw := wantIQ && r.model.Level == readout.LevelRaw
	averaging := wantIQ && r.model.Return == readout.ReturnAverage
	if wantIQ {
		res.MeasLevel = r.model.Level
	}

	n := len(r.captures)
	var (
		pts    []readout.IQ // the shot's records
		trs    [][]complex128
		points [][]readout.IQ // per shot, ReturnSingle
		traces [][][]complex128
		sumPts []readout.IQ // running sums, ReturnAverage
		sumTrs [][]complex128
		allPts []readout.IQ // what the per-shot rows of points and traces view
		allTrs [][]complex128
	)
	switch {
	case averaging:
		pts, sumPts = make([]readout.IQ, n), make([]readout.IQ, n)
		if wantRaw {
			trs, sumTrs = make([][]complex128, n), make([][]complex128, n)
			for i, c := range r.captures {
				sumTrs[i] = make([]complex128, c.samples)
			}
		}
	case wantIQ:
		points, allPts = make([][]readout.IQ, r.shots), make([]readout.IQ, r.shots*n)
		if wantRaw {
			traces, allTrs = make([][][]complex128, r.shots), make([][]complex128, r.shots*n)
		}
	}
	var tally []int
	if len(r.cum)>>n > 0 {
		r.tally = slices.Grow(r.tally[:0], 1<<n)[:1<<n]
		tally = r.tally
		clear(tally)
	}
	err := eachShot(r.shots, r.interrupted, func(k int) {
		if points != nil {
			// Full slice expressions: a caller's append to one shot's row
			// reallocates instead of writing into the next shot's.
			pts = allPts[k*n : (k+1)*n : (k+1)*n]
			points[k] = pts
			if wantRaw {
				trs = allTrs[k*n : (k+1)*n : (k+1)*n]
				traces[k] = trs
			}
		}
		if out := r.runShot(k, pts, trs); tally != nil {
			tally[out]++
		} else {
			res.Counts[r.classical(out)]++
		}
		for i := range sumPts {
			sumPts[i].I += pts[i].I
			sumPts[i].Q += pts[i].Q
			if wantRaw {
				for j, v := range trs[i] {
					sumTrs[i][j] += v
				}
			}
		}
	})
	if err != nil {
		return err
	}
	for out, c := range tally {
		if c > 0 {
			res.Counts[r.classical(uint64(out))] = c
		}
	}
	if !averaging {
		res.IQ, res.Raw = points, traces
		return nil
	}
	shots := float64(r.shots)
	for i := range sumPts {
		sumPts[i].I /= shots
		sumPts[i].Q /= shots
	}
	res.IQ = [][]readout.IQ{sumPts}
	if wantRaw {
		inv := complex(1/shots, 0)
		for i := range sumTrs {
			for j := range sumTrs[i] {
				sumTrs[i][j] *= inv
			}
		}
		res.Raw = [][][]complex128{sumTrs}
	}
	return nil
}
