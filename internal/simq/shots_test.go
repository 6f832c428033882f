package simq

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mqsspulse/internal/linalg"
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
			st := shotStreamState(seed, k)
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
		src := &shotSource{state: shotStreamState(7, k)}
		v := src.Uint64()
		if seen[v] {
			t.Fatalf("first draw of shot %d collides with an earlier shot", k)
		}
		seen[v] = true
	}
}

func TestShotSourceIsDeterministic(t *testing.T) {
	a := &shotSource{state: shotStreamState(3, 9)}
	b := &shotSource{state: shotStreamState(3, 9)}
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %#x vs %#x", i, av, bv)
		}
	}
	if v := a.Int63(); v < 0 {
		t.Fatalf("Int63 returned negative %d", v)
	}
}

func TestPropCacheConcurrentHammer(t *testing.T) {
	// 16 goroutines hammer the shared propagator cache with a key space
	// 3× the capacity, mixing hits, misses, inserts, and evictions — the
	// race detector (CI runs this with -race) catches any unsynchronized
	// access, and value checks catch key collisions under eviction churn.
	c := newPropCache()
	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			for i := 0; i < 5000; i++ {
				k := rng.Intn(3 * propCacheLimit)
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
	if n := c.size(); n > propCacheLimit {
		t.Fatalf("cache holds %d entries, limit %d", n, propCacheLimit)
	}
}

func TestPropCachePutIsFirstWriterWins(t *testing.T) {
	c := newPropCache()
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

func TestShotPoolCoversEveryShotOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const shots = 2048
		hits := make([]atomic.Int32, shots)
		busy, err := shotPool(workers, 0, shots, nil, func(w, k int) error {
			hits[k].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(busy) != workers {
			t.Fatalf("busy slice has %d entries for %d workers", len(busy), workers)
		}
		for k := range hits {
			if n := hits[k].Load(); n != 1 {
				t.Fatalf("workers=%d: shot %d ran %d times", workers, k, n)
			}
		}
	}
}

func TestShotPoolStopsDispatchAfterInterrupt(t *testing.T) {
	// Once any worker observes cancellation, the stop flag must drain the
	// pool: the number of shots started afterwards is bounded by the
	// in-flight count, never the remaining backlog.
	const workers, shots = 4, 100000
	var started atomic.Int64
	var cancel atomic.Bool
	_, err := shotPool(workers, 0, shots, cancel.Load, func(w, k int) error {
		if started.Add(1) == 8 {
			cancel.Store(true)
		}
		return nil
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if n := started.Load(); n > 8+workers {
		t.Fatalf("%d shots started after cancellation at shot 8 (workers=%d)", n, workers)
	}
}

func TestShotPoolSerialPollsInterrupt(t *testing.T) {
	var calls int
	_, err := shotPool(1, 0, 10000, func() bool { return true }, func(w, k int) error {
		calls++
		return nil
	})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if calls != 0 {
		t.Fatalf("serial pool ran %d shots after pre-cancelled start", calls)
	}
}

func TestShotPoolPropagatesWorkerError(t *testing.T) {
	wantErr := ErrInterrupted
	var ran atomic.Int64
	_, err := shotPool(4, 0, 50000, nil, func(w, k int) error {
		if ran.Add(1) == 5 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want the worker's error", err)
	}
	if n := ran.Load(); n > 5+4 {
		t.Fatalf("%d shots ran after a worker failed at shot 5", n)
	}
}
