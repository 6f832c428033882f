package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// windowBlocks is the number of equal blocks a measured window is split
// into; rates and medians are reported as the median block value with the
// block minimum and maximum as their spread.
const windowBlocks = 6

// roundWork is how long the callers run between two yardstick readings:
// short against the seconds over which the machine's speed drifts, long
// against the 32 ms a reading takes.
const roundWork = 100 * time.Millisecond

// opSample is one successful operation: when it ran, as offsets from the
// window start, and the round it ran in.
type opSample struct {
	start, end time.Duration
	round      int
}

// round is one stretch of the closed loop between two yardstick readings.
type round struct {
	start time.Duration // offset from the window start
	busy  time.Duration // until the last caller had returned
	ops   int           // operations that succeeded
	// speed is the mean speed of the yardstick readings either side of the
	// round: the round's busy time, multiplied by it, is the time the same
	// jobs take at nominal machine speed.
	speed float64
}

// window is one measured run of a workload's closed loop.
type window struct {
	length time.Duration // requested length; blocks divide this
	wall   time.Duration // until the last reading ended
	ops    []opSample
	rounds []round
	// opSpeed is the machine speed the median operation felt (speedAt): an
	// operation's time, multiplied by it, is its time at nominal speed.
	opSpeed   float64
	attempted int
	failed    int
	firstErr  error
	mallocs   uint64 // heap objects allocated during the rounds
	bytes     uint64 // heap bytes allocated during the rounds
}

// allocSamples names the runtime's allocation counters: objects plus tiny
// objects is runtime.MemStats.Mallocs and bytes is TotalAlloc, but reading
// them does not stop the world.
func allocSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
	}
}

// readAllocs returns the process's heap allocations so far.
func readAllocs(samples []metrics.Sample) (objects, bytes uint64) {
	metrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64(), samples[2].Value.Uint64()
}

// runWindow drives w's callers for length, in rounds of roundWork with a
// yardstick reading between them: within a round each caller issues its
// next operation as soon as the previous one returned, taking operation
// numbers from next, and a round ends when every caller has returned from
// the operation that crossed its end. Allocations are counted over the
// rounds only. With a recorder every operation is recorded as a span tree,
// and its sample ends after the recording, so the traced samples carry the
// recorder's cost.
func runWindow(ctx context.Context, w *workload, inst *instance, next *atomic.Int64, length time.Duration, rec *recorder, yard *yardstick) *window {
	win := &window{length: length}
	samples := make([][]opSample, w.callers)
	for c := range samples {
		samples[c] = make([]opSample, 0, 1<<16)
	}
	failed := make([]int, w.callers)
	errs := make([]error, w.callers)

	allocs := allocSamples()
	runtime.GC()
	start := time.Now()
	readings := []reading{yard.read()}
	for r := 0; time.Since(start) < length && ctx.Err() == nil; r++ {
		objects0, bytes0 := readAllocs(allocs)
		roundStart := time.Now()
		deadline := roundStart.Add(roundWork)
		var wg sync.WaitGroup
		for c := 0; c < w.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					t0 := time.Now()
					if !t0.Before(deadline) || ctx.Err() != nil {
						return
					}
					i := int(next.Add(1) - 1)
					tls, err := inst.op(ctx, i, rec != nil)
					t1 := time.Now()
					if err != nil {
						if failed[c]++; errs[c] == nil {
							errs[c] = err
						}
						continue
					}
					if rec != nil {
						rec.recordOp(w.name, i, t0, t1, tls)
						t1 = time.Now()
					}
					samples[c] = append(samples[c], opSample{t0.Sub(start), t1.Sub(start), r})
				}
			}(c)
		}
		wg.Wait()
		busy := time.Since(roundStart)
		objects1, bytes1 := readAllocs(allocs)
		win.mallocs += objects1 - objects0
		win.bytes += bytes1 - bytes0
		readings = append(readings, yard.read())
		speed := (readings[r].speed + readings[r+1].speed) / 2
		win.rounds = append(win.rounds, round{start: roundStart.Sub(start), busy: busy, speed: speed})
	}
	win.wall = time.Since(start)
	for c := range samples {
		for _, s := range samples[c] {
			win.rounds[s.round].ops++
		}
		win.ops = append(win.ops, samples[c]...)
		win.failed += failed[c]
		if win.firstErr == nil {
			win.firstErr = errs[c]
		}
	}
	win.attempted = len(win.ops) + win.failed
	win.opSpeed = 1
	if len(win.ops) > 0 {
		times := make([]float64, len(win.ops))
		for i, s := range win.ops {
			times[i] = float64(s.end - s.start)
		}
		win.opSpeed = speedAt(readings, time.Duration(median(times)))
	}
	return win
}

// ms is the operation's time in milliseconds at nominal machine speed.
func (w *window) ms(s opSample) float64 {
	return float64(s.end-s.start) / float64(time.Millisecond) * w.opSpeed
}

// opMillis returns the sorted operation times, in milliseconds at nominal
// machine speed.
func (w *window) opMillis() []float64 {
	ms := make([]float64, len(w.ops))
	for i, s := range w.ops {
		ms[i] = w.ms(s)
	}
	sort.Float64s(ms)
	return ms
}

// block returns which of the windowBlocks equal blocks an offset from the
// window start falls in; a round that starts just before the window closes
// may run past it, and counts to the last block.
func (w *window) block(offset time.Duration) int {
	return min(int(offset/(w.length/windowBlocks)), windowBlocks-1)
}

// blockRates returns each block's jobs per second at nominal machine speed:
// the jobs of the rounds that started in the block over those rounds' busy
// time, each scaled by its round's speed (blocks without a round are left
// out).
func (w *window) blockRates(jobsPerOp int) []float64 {
	var jobs, seconds [windowBlocks]float64
	for _, r := range w.rounds {
		b := w.block(r.start)
		jobs[b] += float64(r.ops * jobsPerOp)
		seconds[b] += r.busy.Seconds() * r.speed
	}
	var out []float64
	for b := range jobs {
		if seconds[b] > 0 {
			out = append(out, jobs[b]/seconds[b])
		}
	}
	return out
}

// blockMedians returns the median operation time, in milliseconds at
// nominal machine speed, of the operations that started in each block
// (blocks without one are left out).
func (w *window) blockMedians() []float64 {
	per := make([][]float64, windowBlocks)
	for _, s := range w.ops {
		b := w.block(s.start)
		per[b] = append(per[b], w.ms(s))
	}
	var out []float64
	for _, ms := range per {
		if len(ms) > 0 {
			out = append(out, median(ms))
		}
	}
	return out
}

// percentile returns the q-quantile of sorted values by linear
// interpolation between the two nearest ranks; NaN for no values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentile(sorted, 0.5)
}

// minMax returns the smallest and largest value; NaNs for no values.
func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for i, v := range values {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// supportedTail lowers a tail quantile to the highest one that still has
// ten samples beyond it among n samples (never below the median).
func supportedTail(q float64, n int) float64 {
	if n <= 0 {
		return q
	}
	return max(0.5, min(q, 1-10/float64(n)))
}
