package simq

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/readout"
)

func TestShotStreamStatesNeverAlias(t *testing.T) {
	// Property: within one job, no two shot indices may ever derive the
	// same RNG stream state — aliasing would correlate shots and bias
	// every statistic built on them. Scanned across a wide index space for
	// adversarial seeds (zero, sign boundaries, the default).
	const indices = 1 << 17
	for _, seed := range []int64{0, 1, -1, 0x6d717373, math.MaxInt64, math.MinInt64} {
		seen := make(map[uint64]int, indices)
		for k := 0; k < indices; k++ {
			st := shotStreamState(streamBase(seed), k)
			if prev, dup := seen[st]; dup {
				t.Fatalf("seed %d: shots %d and %d share stream state %#x", seed, prev, k, st)
			}
			seen[st] = k
		}
	}
}

func TestShotStreamDrawsDifferAcrossShots(t *testing.T) {
	// Distinct stream states must also decorrelate the actual draws: the
	// first draw of every shot, collected over many shots, should not
	// collide more than birthday statistics allow (none, for 64-bit
	// outputs at this scale).
	const shots = 1 << 15
	seen := make(map[uint64]bool, shots)
	for k := 0; k < shots; k++ {
		src := &shotSource{state: shotStreamState(streamBase(7), k)}
		v := src.Uint64()
		if seen[v] {
			t.Fatalf("first draw of shot %d collides with an earlier shot", k)
		}
		seen[v] = true
	}
}

func TestShotSourceIsDeterministic(t *testing.T) {
	a := &shotSource{state: shotStreamState(streamBase(3), 9)}
	b := &shotSource{state: shotStreamState(streamBase(3), 9)}
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %#x vs %#x", i, av, bv)
		}
	}
	if v := a.Int63(); v < 0 {
		t.Fatalf("Int63 returned negative %d", v)
	}
}

// unmix64 inverts mix64: each xor-shift by iterating it to its fixed point,
// each odd multiplier by its inverse mod 2⁶⁴ (Newton's iteration doubles
// the correct low bits per step, from the 3 that m·m ≡ 1 mod 8 gives).
func unmix64(z uint64) uint64 {
	unshift := func(z uint64, s uint) uint64 {
		y := z
		for range 64 / s {
			y = z ^ y>>s
		}
		return y
	}
	inverse := func(m uint64) uint64 {
		x := m
		for range 5 {
			x *= 2 - m*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

func TestShotSourceFloat64MatchesRand(t *testing.T) {
	// shotSource.Float64 draws exactly what math/rand's Rand.Float64 draws
	// over the same stream, variate by variate, including the redraw when
	// Int63 is 2⁶³−1 and its quotient by 2⁶³ rounds to 1.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		x := rng.Uint64()
		if got := mix64(unmix64(x)); got != x {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", x, got)
		}
	}
	states := []uint64{0, math.MaxUint64}
	// Uint64 mixes state+γ, so these states' first Int63 is 2⁶³−1.
	for _, top := range []uint64{math.MaxUint64, math.MaxUint64 - 1} {
		state := unmix64(top) - shotStreamGamma
		if v := (&shotSource{state}).Int63(); v != math.MaxInt64 {
			t.Fatalf("state %#x: first Int63 %#x, want 2⁶³−1", state, v)
		}
		states = append(states, state)
	}
	for len(states) < 100000 {
		states = append(states, rng.Uint64())
	}
	for _, st := range states {
		direct, viaRand := &shotSource{st}, rand.New(&shotSource{st})
		for d := 0; d < 3; d++ {
			got, want := direct.Float64(), viaRand.Float64()
			if got != want || got >= 1 {
				t.Fatalf("state %#x, draw %d: Float64 %v, rand.Float64 %v", st, d, got, want)
			}
		}
	}
}

// TestCountsMapPathMatchesDenseTally: a run with more outcomes than basis
// states counts each shot into the Counts map; on the same draws it must
// agree with the dense tally. Without readout error a shot draws one
// variate whatever its captures, so a program that captures each site again
// under new bits sees the dense run's draws: its counts read on bits 0 and
// 1 are the dense run's, and each repeated capture reads its site's bit.
func TestCountsMapPathMatchesDenseTally(t *testing.T) {
	sp := resonantProgram(t, func(s *pulse.Schedule) {
		playGaussian(t, s, "d0", "f0", 0.6, 48)
		playConst(t, s, "d1", "f1", 0.4, 40)
		if err := s.Append(&pulse.Barrier{}); err != nil {
			t.Fatal(err)
		}
		for i, port := range []string{"d0", "d1"} {
			if err := s.Append(&pulse.Capture{Port: port, Frame: fmt.Sprintf("f%d", i), Bit: i, DurationSamples: 16}); err != nil {
				t.Fatal(err)
			}
		}
	})
	ex := twoTransmonOpenRig(t)
	dense, err := ex.Prepare(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rho, err := dense.run(ExecOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bits 3, 5 and 6 capture sites 0, 1 and 0 again: 2⁵ outcomes over 9
	// basis states.
	wide := *dense
	wide.captures = append(slices.Clone(dense.captures),
		captureEvent{bit: 3, site: 0, samples: 16}, captureEvent{bit: 5, site: 1, samples: 16}, captureEvent{bit: 6, site: 0, samples: 16})
	sites := []int{0, 1, 0, 1, 0}
	wide.masks = make([]uint64, len(dense.masks))
	for idx := range wide.masks {
		wide.masks[idx] = siteMask(ex.Model.Dims, sites, idx)
	}
	sample := func(p *Program, wantTally int) map[uint64]int {
		var r shotRunner
		r.load(p, nil, rho, 9, ExecOptions{Shots: 4096})
		res := &ExecResult{Counts: map[uint64]int{}}
		if err := r.sampleAll(res); err != nil {
			t.Fatal(err)
		}
		if len(r.tally) != wantTally {
			t.Fatalf("%d captures: dense tally of %d outcomes, want %d", len(p.captures), len(r.tally), wantTally)
		}
		return res.Counts
	}
	want := sample(dense, 4)
	if len(want) < 3 {
		t.Fatalf("counts %v: too few outcomes to compare", want)
	}
	got := map[uint64]int{}
	for m, c := range sample(&wide, 0) {
		b0, b1 := m&1, m>>1&1
		if m>>3&1 != b0 || m>>5&1 != b1 || m>>6&1 != b0 || m&0b10100 != 0 {
			t.Fatalf("outcome %b: a repeated capture disagrees with its site's first", m)
		}
		got[m&0b11] += c
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("map path counts %v on bits 0 and 1, dense tally %v", got, want)
	}
}

func TestPropCacheConcurrentHammer(t *testing.T) {
	// 16 goroutines hammer the shared propagator cache with a key space
	// 3× the capacity, mixing hits, misses, inserts, and evictions — the
	// race detector (CI runs this with -race) catches any unsynchronized
	// access, and value checks catch key collisions under eviction churn.
	c := newMemo[*linalg.Matrix]()
	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			for i := 0; i < 5000; i++ {
				k := rng.Intn(3 * memoLimit)
				buf = append(buf[:0], byte(k), byte(k>>8))
				if u, ok := c.get(buf); ok {
					if got := real(u.At(0, 0)); got != float64(k) {
						t.Errorf("cache returned value %g for key %d", got, k)
					}
					continue
				}
				m := linalg.NewMatrix(1, 1)
				m.Set(0, 0, complex(float64(k), 0))
				c.put(buf, m)
			}
		}(g)
	}
	wg.Wait()
	if n := c.size(); n > memoLimit {
		t.Fatalf("cache holds %d entries, limit %d", n, memoLimit)
	}
}

func TestPropCachePutIsFirstWriterWins(t *testing.T) {
	c := newMemo[*linalg.Matrix]()
	key := []byte{1}
	m1 := linalg.NewMatrix(1, 1)
	m1.Set(0, 0, 1)
	m2 := linalg.NewMatrix(1, 1)
	m2.Set(0, 0, 2)
	c.put(key, m1)
	c.put(key, m2) // racing duplicate insert must not replace
	u, ok := c.get(key)
	if !ok || u != m1 {
		t.Fatal("duplicate put replaced the first inserted propagator")
	}
}

// TestMemoEvictsInInsertionOrder: at capacity a put evicts the oldest
// entry, so a memo's contents, and the propagator cache's hit and miss
// counts, follow from the order of its puts and never from map iteration.
func TestMemoEvictsInInsertionOrder(t *testing.T) {
	c := newMemo[int]()
	key := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	held := func(from, to int) {
		t.Helper()
		for i := range 2*memoLimit + 1 {
			if _, ok := c.get(key(i)); ok != (from <= i && i < to) {
				t.Fatalf("after %d puts key %d held = %v, want keys [%d, %d)", to, i, ok, from, to)
			}
		}
	}
	for i := range memoLimit + 1 {
		c.put(key(i), i)
	}
	held(1, memoLimit+1)
	for i := memoLimit + 1; i < 2*memoLimit+1; i++ {
		c.put(key(i), i)
	}
	held(memoLimit+1, 2*memoLimit+1)

	// 200 distinct constant stretches, run twice: a cycle longer than the
	// memo, so every look-up of the second run misses too.
	counts := func() (hits, misses int64) {
		dims := []int{2, 2}
		s := pulse.NewSchedule()
		if err := s.AddPort(&pulse.Port{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame("f0", 5.0e9)); err != nil {
			t.Fatal(err)
		}
		for i := range 200 {
			playConst(t, s, "d0", "f0", 0.001*float64(i+1), 16)
		}
		model, err := NewSystemModel(dims, nil, []*ControlChannel{QubitDriveChannel("d0", dims, 0, 10e6, 5.0e9)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewExecutor(model).Prepare(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			res, err := p.Run(ExecOptions{Shots: 1})
			if err != nil {
				t.Fatal(err)
			}
			hits, misses = hits+res.PropCacheHits, misses+res.PropCacheMisses
		}
		return hits, misses
	}
	h1, m1 := counts()
	h2, m2 := counts()
	if h1 != h2 || m1 != m2 || h1 != 0 || m1 != 400 {
		t.Fatalf("two fresh executors read %d/%d and %d/%d hits/misses, want 0/400 both", h1, m1, h2, m2)
	}
}

func TestShotPoolCoversEveryShotOnce(t *testing.T) {
	// The sampler draws every shot exactly once, in shot order.
	const shots = 2048
	var order []int
	if err := eachShot(shots, nil, func(k int) { order = append(order, k) }); err != nil {
		t.Fatal(err)
	}
	if len(order) != shots {
		t.Fatalf("%d shots drawn, want %d", len(order), shots)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("draw %d was shot %d: shots out of order", i, k)
		}
	}
}

func TestShotPoolStopsDispatchAfterInterrupt(t *testing.T) {
	// A cancel seen mid-run stops the draws within serialShotPoll shots: the
	// poll that sees it is the last, and no shot runs after it.
	const shots, flipAt = 100000, 8
	var drawn int
	var cancel atomic.Bool
	err := eachShot(shots, cancel.Load, func(k int) {
		if drawn++; drawn == flipAt {
			cancel.Store(true)
		}
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if drawn > flipAt+serialShotPoll {
		t.Fatalf("%d shots drawn after cancellation at shot %d (poll every %d)", drawn-flipAt, flipAt, serialShotPoll)
	}
}

func TestShotPoolSerialPollsInterrupt(t *testing.T) {
	var calls int
	err := eachShot(10000, func() bool { return true }, func(k int) { calls++ })
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if calls != 0 {
		t.Fatalf("sampler drew %d shots after a pre-cancelled start", calls)
	}
}

// TestShotRowsEndAtTheirLength: at ReturnSingle every shot's IQ row, and
// at raw level its row of traces, is a view of one array per run capped at
// its own length, so a caller's append to one shot's row moves that row and
// leaves the next shot's as it was.
func TestShotRowsEndAtTheirLength(t *testing.T) {
	for _, level := range []readout.MeasLevel{readout.LevelKerneled, readout.LevelRaw} {
		s, ex := twoTransmonRig(t, 0.5e-6, 0.4e-6)
		res := runSchedule(t, s, ex, ExecOptions{Shots: 4, Seed: 3,
			Readout: &ReadoutModel{Level: level, Return: readout.ReturnSingle,
				Sites: map[int]ReadoutSite{0: {Fidelity: 0.97}, 1: {Fidelity: 0.99}}}})
		next := slices.Clone(res.IQ[1])
		_ = append(res.IQ[0], readout.IQ{I: 99, Q: 99})
		if !slices.Equal(res.IQ[1], next) {
			t.Fatalf("%v: an append to shot 0's IQ row changed shot 1's from %v to %v", level, next, res.IQ[1])
		}
		if level != readout.LevelRaw {
			continue
		}
		nextTrs := slices.Clone(res.Raw[1])
		_ = append(res.Raw[0], []complex128{99})
		for i := range nextTrs {
			if len(res.Raw[1][i]) != len(nextTrs[i]) || &res.Raw[1][i][0] != &nextTrs[i][0] {
				t.Fatalf("an append to shot 0's trace row replaced shot 1's trace %d", i)
			}
		}
	}
}

// TestMeasuredBitsAreTheRunsOwn: a run's MeasuredBits lists its captured
// bits in ascending order — a view of the result's own array capped at its
// length up to four captures, a copy of its own past that — so what the
// caller writes leaves the program and the next run as they were.
func TestMeasuredBitsAreTheRunsOwn(t *testing.T) {
	ex := twoTransmonOpenRig(t)
	for _, bits := range [][]int{{3}, {0, 5, 2, 7}, {4, 0, 9, 1, 6}} {
		sp := resonantProgram(t, func(s *pulse.Schedule) {
			for i, bit := range bits {
				port, frame := fmt.Sprintf("d%d", i%2), fmt.Sprintf("f%d", i%2)
				if err := s.Append(&pulse.Capture{Port: port, Frame: frame, Bit: bit, DurationSamples: 16}); err != nil {
					t.Fatal(err)
				}
			}
		})
		p, err := ex.Prepare(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Sorted(slices.Values(bits))
		for range 2 {
			res, err := p.Run(ExecOptions{Shots: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.MeasuredBits, want) || len(want) <= 4 && cap(res.MeasuredBits) != len(want) {
				t.Fatalf("MeasuredBits %v (cap %d), want %v", res.MeasuredBits, cap(res.MeasuredBits), want)
			}
			res.MeasuredBits[0] = -1
			_ = append(res.MeasuredBits, -1)
		}
		if !slices.Equal(p.bits, want) {
			t.Fatalf("the program's bits moved to %v", p.bits)
		}
	}
}

// BenchmarkSampleShots times the sampling phase alone, over a final state
// evolved once: 4,096 discriminated shots with readout error on the sc-2
// shape, and 64 kerneled shots on the two-qubit rig.
func BenchmarkSampleShots(b *testing.B) {
	b.Run("discriminated-4096", func(b *testing.B) {
		sp := resonantProgram(b, func(s *pulse.Schedule) {
			playConst(b, s, "d0", "f0", 0.5, 64)
			playConst(b, s, "d1", "f1", 0.5, 64)
			for i, port := range []string{"d0", "d1"} {
				if err := s.Append(&pulse.Capture{Port: port, Frame: fmt.Sprintf("f%d", i), Bit: i, DurationSamples: 16}); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchSample(b, twoTransmonOpenRig(b), sp, ExecOptions{Shots: 4096, Seed: 1, SiteError: flips(0.02, 0.05)})
	})
	b.Run("kerneled-64", func(b *testing.B) {
		s, ex := twoTransmonRig(b, 0.5e-6, 0.4e-6)
		sp, err := s.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		benchSample(b, ex, sp, ExecOptions{Shots: 64, Seed: 1,
			Readout: &ReadoutModel{Level: readout.LevelKerneled, Sites: map[int]ReadoutSite{0: {Fidelity: 0.97}, 1: {Fidelity: 0.99, T1Seconds: 1e-6}}}})
	})
}

// benchSample evolves sp once on ex, then times loading and sampling the
// final state with opts.
func benchSample(b *testing.B, ex *Executor, sp *pulse.ScheduledProgram, opts ExecOptions) {
	p, err := ex.Prepare(sp, nil)
	if err != nil {
		b.Fatal(err)
	}
	_, st, rho, err := p.run(ExecOptions{Shots: 1})
	if err != nil {
		b.Fatal(err)
	}
	var r shotRunner
	b.ReportAllocs()
	for b.Loop() {
		r.load(p, st, rho, opts.Seed, opts)
		if err := r.sampleAll(&ExecResult{Counts: map[uint64]int{}}); err != nil {
			b.Fatal(err)
		}
	}
}
