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
