package simq

import (
	"math/rand"

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

// shotStreamState derives the initial RNG stream state of shot k from
// the job seed. The argument of the outer mix64 is injective in k for a
// fixed seed (the gamma multiplier is odd, hence invertible mod 2⁶⁴) and
// mix64 itself is a bijection, so no two shots of one job ever receive
// the same stream state — the aliasing property test pins this across
// the shot index space. Plain math/rand.NewSource is NOT usable here: it
// reduces seeds mod 2³¹−1, which would alias 64-bit derived seeds.
func shotStreamState(jobSeed int64, shot int) uint64 {
	return mix64(mix64(uint64(jobSeed)) + (uint64(shot)+1)*shotStreamGamma)
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

// shotRunner is the per-run context of the sampling phase: the final
// probability distribution every shot samples, the readout configuration,
// and the run's one generator.
type shotRunner struct {
	captures []captureEvent
	masks    []uint64      // the program's measured bitmask per basis index
	model    *ReadoutModel // non-nil for kerneled/raw synthesis
	// errs holds each capture's assignment-error rates (p01, p10), read
	// from ExecOptions.SiteError once per run; nil for kerneled/raw.
	errs        [][2]float64
	dt          float64
	seed        int64
	shots       int
	interrupted func() bool

	// The shared cumulative distribution of the evolved state.
	cum   []float64
	total float64

	// src is re-pointed at shot k's stream before each shot. Nothing in the
	// pipeline calls Rand.Read — the only rand.Rand method with state outside
	// the source — so re-seeding the source alone gives a shot exactly the
	// draws a fresh rand.New would.
	src shotSource
	rng *rand.Rand
}

// newShotRunner assembles the sampling phase for a run of a program whose
// captures are non-empty. Exactly one of st and rho carries the evolved
// final state.
func (p *Program) newShotRunner(st *State, rho *Density, seed int64, opts ExecOptions) *shotRunner {
	r := &shotRunner{
		captures:    p.captures,
		masks:       p.masks,
		dt:          p.dt,
		seed:        seed,
		shots:       opts.Shots,
		interrupted: opts.Interrupted,
	}
	if m := opts.Readout; m != nil && m.Level != readout.LevelDiscriminated {
		r.model = m
	} else {
		r.errs = make([][2]float64, len(p.captures))
		if opts.SiteError != nil {
			for i, c := range p.captures {
				r.errs[i][0], r.errs[i][1] = opts.SiteError(c.site)
			}
		}
	}
	// The fresh probabilities become the cumulative distribution in place.
	if rho != nil {
		r.cum = rho.Populations()
	} else {
		r.cum = st.Probabilities()
	}
	r.total = buildCum(r.cum, r.cum)
	r.rng = rand.New(&r.src)
	return r
}

// runShot draws shot k — one projective draw, then per-capture readout error
// or IQ synthesis, all from the shot's own RNG stream — and returns its
// discriminated bitmask. At kerneled and raw levels it writes the shot's
// point per capture into pts and, when trs is non-nil, its trace into trs.
func (r *shotRunner) runShot(k int, pts []readout.IQ, trs [][]complex128) uint64 {
	r.src.state = shotStreamState(r.seed, k)
	rng := r.rng
	raw := r.masks[drawIndex(rng, r.cum, r.total)]
	var mask uint64
	if r.model != nil {
		for i, c := range r.captures {
			trueBit := (raw >> uint(i)) & 1
			rec := r.model.synthesizeShot(rng, c.site, trueBit, c.samples, float64(c.samples)*r.dt, trs != nil)
			pts[i] = rec.point
			if trs != nil {
				trs[i] = rec.trace
			}
			mask |= rec.bit << uint(c.bit)
		}
		return mask
	}
	for i, c := range r.captures {
		bit := (raw >> uint(i)) & 1
		p01, p10 := r.errs[i][0], r.errs[i][1]
		if bit == 0 && p01 > 0 && rng.Float64() < p01 {
			bit = 1
		} else if bit == 1 && p10 > 0 && rng.Float64() < p10 {
			bit = 0
		}
		mask |= bit << uint(c.bit)
	}
	return mask
}

// sampleAll draws every shot in shot order and fills res: counts, and the
// IQ/raw records per the model's return mode. Averaged records are running
// sums each shot is added into as it is drawn, so no per-shot record is
// kept and the sums see the shots in one fixed order.
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
		points = make([][]readout.IQ, r.shots)
		if wantRaw {
			traces = make([][][]complex128, r.shots)
		}
	}
	err := eachShot(r.shots, r.interrupted, func(k int) {
		if points != nil {
			pts = make([]readout.IQ, n)
			points[k] = pts
			if wantRaw {
				trs = make([][]complex128, n)
				traces[k] = trs
			}
		}
		res.Counts[r.runShot(k, pts, trs)]++
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
