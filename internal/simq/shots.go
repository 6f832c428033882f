package simq

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mqsspulse/internal/readout"
)

// This file implements the shot-parallel execution phase: per-shot
// deterministic RNG streams, the worker pool, and the per-shot sampling
// pipeline (projective draw → readout error or IQ synthesis) over the
// final state the engine evolved once. The determinism contract: every
// shot's outcome is a pure function of (job seed, shot index) and all
// aggregation happens in shot order, so results are byte-identical for
// any ShotWorkers value and any shot-completion order.

const (
	// shotStreamGamma is the SplitMix64 golden-ratio increment.
	shotStreamGamma = 0x9E3779B97F4A7C15
	// serialShotPoll is how many shots a serial (single-worker) run
	// processes between polls of Interrupted; parallel workers poll every
	// shot (one atomic load).
	serialShotPoll = 64
	// avgChunkShots is the chunk size of the ReturnAverage pipeline: each
	// chunk synthesizes records in parallel, then the running sums
	// accumulate strictly in shot order and the chunk's records are
	// released. Constant (worker-independent) so chunk boundaries never
	// affect results; bounds memory at O(chunk·captures·samples).
	avgChunkShots = 256
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
// stream at shotStreamState, so the draws a shot sees are identical
// whatever worker ran it. Distinct streams are windows of one
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

// shotPool runs fn(worker, shot) for every shot index in [lo, hi) across
// the given number of workers. Work is handed out by an atomic counter,
// so completion order is arbitrary — determinism comes from fn depending
// only on the shot index. Every worker checks Interrupted between shots
// and a shared stop flag drains all workers as soon as one observes
// cancellation or fails, so no shot result is emitted after.
// Returns each worker's busy wall time and the first error.
func shotPool(workers, lo, hi int, interrupted func() bool, fn func(worker, shot int) error) ([]time.Duration, error) {
	busy := make([]time.Duration, workers)
	if workers <= 1 {
		start := time.Now()
		defer func() { busy[0] = time.Since(start) }()
		for k := lo; k < hi; k++ {
			if interrupted != nil && (k-lo)%serialShotPoll == 0 && interrupted() {
				return busy, ErrInterrupted
			}
			if err := fn(0, k); err != nil {
				return busy, err
			}
		}
		return busy, nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make([]error, workers)
	next.Store(int64(lo))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			defer func() { busy[w] = time.Since(start) }()
			for !stop.Load() {
				k := int(next.Add(1)) - 1
				if k >= hi {
					return
				}
				if interrupted != nil && interrupted() {
					errs[w] = ErrInterrupted
					stop.Store(true)
					return
				}
				if err := fn(w, k); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return busy, err
		}
	}
	return busy, nil
}

// shotRunner is the per-run context of the shot-parallel sampling phase:
// the final probability distribution every shot samples, the readout
// configuration, and one RNG per pool worker.
type shotRunner struct {
	captures    []captureEvent
	sites       []int
	dims        []int
	model       *ReadoutModel // non-nil for kerneled/raw synthesis
	siteErr     func(site int) (p01, p10 float64)
	dt          float64
	seed        int64
	shots       int
	workers     int
	interrupted func() bool

	// The shared cumulative distribution of the evolved state.
	cum   []float64
	total float64

	rngs []workerRNG
}

// workerRNG is one pool worker's generator, re-pointed at shot k's stream
// before each shot. Nothing in the pipeline calls Rand.Read — the only
// rand.Rand method with state outside the source — so re-seeding the
// source alone gives a shot exactly the draws a fresh rand.New would.
type workerRNG struct {
	src  shotSource
	rand *rand.Rand
}

// newShotRunner assembles the sampling phase for a run of a program whose
// captures are non-empty. Exactly one of st and rho carries the evolved
// final state.
func (p *Program) newShotRunner(st *State, rho *Density, seed int64, workers int, opts ExecOptions) *shotRunner {
	r := &shotRunner{
		captures:    p.captures,
		sites:       p.sites,
		dims:        p.exec.Model.Dims,
		dt:          p.dt,
		seed:        seed,
		shots:       opts.Shots,
		workers:     workers,
		interrupted: opts.Interrupted,
	}
	if m := opts.Readout; m != nil && m.Level != readout.LevelDiscriminated {
		r.model = m
	} else {
		r.siteErr = opts.SiteError
		if r.siteErr == nil {
			r.siteErr = func(int) (float64, float64) { return 0, 0 }
		}
	}
	var probs []float64
	if rho != nil {
		probs = rho.Populations()
	} else {
		probs = st.Probabilities()
	}
	r.cum = make([]float64, len(probs))
	r.total = buildCum(r.cum, probs)
	r.rngs = make([]workerRNG, workers)
	for i := range r.rngs {
		r.rngs[i].rand = rand.New(&r.rngs[i].src)
	}
	return r
}

// runShot executes shot k on pool worker w: one projective draw, then
// per-capture readout error or IQ synthesis — all from the shot's private
// RNG stream. Outputs land at index k of the destination slices, never in
// a shared accumulator, so concurrent shots don't contend and ordering is
// immaterial.
func (r *shotRunner) runShot(w, k int, masks []uint64, points [][]readout.IQ, traces [][][]complex128, wantRaw bool) {
	wr := &r.rngs[w]
	wr.src.state = shotStreamState(r.seed, k)
	rng := wr.rand
	raw := siteMask(r.dims, r.sites, drawIndex(rng, r.cum, r.total))
	var mask uint64
	if r.model != nil {
		pts := make([]readout.IQ, len(r.captures))
		var trs [][]complex128
		if wantRaw {
			trs = make([][]complex128, len(r.captures))
		}
		for i, c := range r.captures {
			trueBit := (raw >> uint(i)) & 1
			rec := r.model.synthesizeShot(rng, c.site, trueBit, c.samples, float64(c.samples)*r.dt, wantRaw)
			pts[i] = rec.point
			if wantRaw {
				trs[i] = rec.trace
			}
			mask |= rec.bit << uint(c.bit)
		}
		points[k] = pts
		if wantRaw {
			traces[k] = trs
		}
	} else {
		for i, c := range r.captures {
			bit := (raw >> uint(i)) & 1
			p01, p10 := r.siteErr(c.site)
			if bit == 0 && p01 > 0 && rng.Float64() < p01 {
				bit = 1
			} else if bit == 1 && p10 > 0 && rng.Float64() < p10 {
				bit = 0
			}
			mask |= bit << uint(c.bit)
		}
	}
	masks[k] = mask
}

// sampleAll drives the whole sampling phase and fills res: counts from
// the per-shot masks in shot order, IQ/raw records per the model's
// return mode, and the worker-utilization telemetry.
func (r *shotRunner) sampleAll(res *ExecResult) error {
	shots := r.shots
	wantIQ := r.model != nil
	wantRaw := wantIQ && r.model.Level == readout.LevelRaw
	averaging := wantIQ && r.model.Return == readout.ReturnAverage
	if wantIQ {
		res.MeasLevel = r.model.Level
	}

	masks := make([]uint64, shots)
	var points [][]readout.IQ
	var traces [][][]complex128
	if wantIQ {
		points = make([][]readout.IQ, shots)
		if wantRaw {
			traces = make([][][]complex128, shots)
		}
	}
	run := func(w, k int) error {
		r.runShot(w, k, masks, points, traces, wantRaw)
		return nil
	}

	var busy []time.Duration
	if averaging {
		// Keep only running sums — per-shot records would cost
		// O(shots·captures·samples) memory just to be collapsed.
		sumPoints := make([]readout.IQ, len(r.captures))
		var sumTraces [][]complex128
		if wantRaw {
			sumTraces = make([][]complex128, len(r.captures))
			for i, c := range r.captures {
				sumTraces[i] = make([]complex128, c.samples)
			}
		}
		busy = make([]time.Duration, r.workers)
		for lo := 0; lo < shots; lo += avgChunkShots {
			hi := lo + avgChunkShots
			if hi > shots {
				hi = shots
			}
			chunkBusy, err := shotPool(r.workers, lo, hi, r.interrupted, run)
			for i, b := range chunkBusy {
				busy[i] += b
			}
			if err != nil {
				return err
			}
			for k := lo; k < hi; k++ {
				for i := range r.captures {
					sumPoints[i].I += points[k][i].I
					sumPoints[i].Q += points[k][i].Q
					if wantRaw {
						for j, v := range traces[k][i] {
							sumTraces[i][j] += v
						}
					}
				}
				points[k] = nil
				if wantRaw {
					traces[k] = nil
				}
			}
		}
		n := float64(shots)
		for i := range sumPoints {
			sumPoints[i].I /= n
			sumPoints[i].Q /= n
		}
		res.IQ = [][]readout.IQ{sumPoints}
		if wantRaw {
			inv := complex(1/n, 0)
			for i := range sumTraces {
				for j := range sumTraces[i] {
					sumTraces[i][j] *= inv
				}
			}
			res.Raw = [][][]complex128{sumTraces}
		}
	} else {
		var err error
		busy, err = shotPool(r.workers, 0, shots, r.interrupted, run)
		if err != nil {
			return err
		}
		if wantIQ {
			res.IQ = points
			if wantRaw {
				res.Raw = traces
			}
		}
	}
	for _, m := range masks {
		res.Counts[m]++
	}
	res.WorkerBusy = busy
	return nil
}
