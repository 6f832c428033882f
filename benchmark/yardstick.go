package main

import (
	"math"
	"math/rand"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a few virtual CPUs of a shared
// host, and how fast it runs this stack drifts by 30–80% over minutes
// (results/README.md has the series): neighbours take the cores' time, caches
// and sibling hyper-threads, in stalls of a fraction of a millisecond and in
// slow stretches of minutes. The yardstick is fixed work that shares no code
// and no memory management with the stack and feels the same drift: the
// window runs it between short rounds of the workload, and every time the
// benchmark reports is scaled by the machine speed the yardstick read around
// it — "milliseconds at nominal speed".

// yardSlice is how long one reading times each of the yardstick's parts,
// after running it untimed for yardWarm: the workload has just filled the
// caches with its own data, and how long a part takes to fetch its tables
// back says how much memory the program under test touches, not how fast
// the machine is.
const (
	yardWarm  = time.Millisecond
	yardSlice = 7 * time.Millisecond
)

// yardIterations is how many iteration times the yardstick keeps: some five
// minutes of readings. Later readings still give their rate.
const yardIterations = 1 << 21

// yardPart is one kind of fixed work. None of them allocates, so the
// collector — whose work depends on the program under test — is not in the
// reading. nominal is the time of one iteration on the builder's machine in
// an ordinary minute, so that speeds read about 1 there and times keep their
// familiar size.
type yardPart struct {
	name    string
	nominal time.Duration
	run     func(y *yardstick)
}

// yardParts mixes what the workloads are made of. No one part follows every
// workload; their geometric mean followed each about as closely as a mix
// with allocating parts did (results/README.md).
var yardParts = [...]yardPart{
	{"integer pipelines", 30 * time.Microsecond, (*yardstick).aluWork},
	{"goroutine hand-offs", 28 * time.Microsecond, (*yardstick).handOffWork},
	{"pointer chase", 48 * time.Microsecond, (*yardstick).chaseWork},
	{"map look-ups", 31 * time.Microsecond, (*yardstick).lookupWork},
}

// yardstick holds the parts' state. A nil yardstick reads speed 1 and takes
// no time: workloads whose service time is a timer are reported as measured.
type yardstick struct {
	ping, pong chan int
	ring       []uint32 // one random cycle through 1 MiB, off the Go heap
	at         uint32
	keys       []string
	byKey      map[string]int
	sum        uint64
	iters      []uint32 // every iteration's nanoseconds, off the Go heap
	used       int
	mapped     [][]byte // what close gives back
}

// reading is one pass over the parts.
type reading struct {
	// iters are the times, in nanoseconds, of each part's consecutive
	// iterations; nil once the yardstick's store is full.
	iters [len(yardParts)][]uint32
	// speed is how fast the machine ran the parts, relative to nominal: the
	// geometric mean over the parts of nominal ÷ mean iteration time.
	speed float64
}

// offHeap returns n zeroed uint32 the garbage collector does not know of:
// memory the yardstick held on the Go heap would change how often the
// workload's garbage is collected.
func (y *yardstick) offHeap(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	y.mapped = append(y.mapped, b)
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// newYardstick builds the parts' tables and starts the goroutine the
// hand-off part talks to.
func newYardstick() *yardstick {
	y := &yardstick{ping: make(chan int), pong: make(chan int), byKey: map[string]int{}}
	y.ring, y.iters = y.offHeap(1<<18), y.offHeap(yardIterations)
	go func() {
		for v := range y.ping {
			y.pong <- v
		}
	}()
	// Sattolo's shuffle leaves one cycle through every slot.
	rng := rand.New(rand.NewSource(1))
	for i := range y.ring {
		y.ring[i] = uint32(i)
	}
	for i := len(y.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		y.ring[i], y.ring[j] = y.ring[j], y.ring[i]
	}
	for i := 0; i < 4096; i++ {
		k := "site_property_" + strconv.Itoa(i*7919)
		y.keys = append(y.keys, k)
		y.byKey[k] = i
	}
	return y
}

// close stops the hand-off goroutine and gives the tables back; readings
// must not be used after it.
func (y *yardstick) close() {
	if y == nil {
		return
	}
	close(y.ping)
	for _, b := range y.mapped {
		syscall.Munmap(b)
	}
}

// read runs every part for yardWarm and then for yardSlice, timing each
// iteration of the slice.
func (y *yardstick) read() reading {
	r := reading{speed: 1}
	if y == nil {
		return r
	}
	logSum := 0.0
	for p, part := range yardParts {
		for t0 := time.Now(); time.Since(t0) < yardWarm; {
			part.run(y)
		}
		first := y.used
		t0 := time.Now()
		last, n := t0, 0
		for last.Sub(t0) < yardSlice {
			part.run(y)
			now := time.Now()
			if y.used < len(y.iters) {
				y.iters[y.used] = uint32(now.Sub(last))
				y.used++
			}
			last = now
			n++
		}
		if y.used-first == n {
			r.iters[p] = y.iters[first:y.used]
		}
		logSum += math.Log(float64(part.nominal) * float64(n) / float64(last.Sub(t0)))
	}
	r.speed = math.Exp(logSum / float64(len(yardParts)))
	return r
}

// speedAt returns how fast the machine ran the yardstick over the readings
// as the median operation of length op felt it. A neighbour's stalls are
// shorter than a millisecond and hit a minority of short operations, so the
// median short operation does not see them, while every long operation holds
// its share of them. The yardstick is therefore read at the operation's own
// time scale: each part's iterations, all readings on end, are cut into
// chunks that last as long as op at nominal speed (a rest too short for two
// is one chunk), and the part's speed is nominal ÷ the median chunk's time
// per iteration. The result is the geometric mean over the parts; 1 without
// readings.
func speedAt(readings []reading, op time.Duration) float64 {
	logSum, parts := 0.0, 0
	for p, part := range yardParts {
		var its []uint32
		for _, r := range readings {
			its = append(its, r.iters[p]...)
		}
		k := max(1, int((op+part.nominal/2)/part.nominal))
		var chunks []float64
		for len(its) > 0 {
			n := len(its)
			if n >= 2*k {
				n = k
			}
			sum := 0.0
			for _, ns := range its[:n] {
				sum += float64(ns)
			}
			chunks = append(chunks, sum/float64(n))
			its = its[n:]
		}
		if len(chunks) > 0 {
			logSum += math.Log(float64(part.nominal) / median(chunks))
			parts++
		}
	}
	if parts == 0 {
		return 1
	}
	return math.Exp(logSum / float64(parts))
}

// aluWork advances four independent integer recurrences 20000 steps.
func (y *yardstick) aluWork() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 20000; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c ^= c<<13 ^ c>>7
		d += a ^ b
	}
	y.sum += a + b + c + d
}

// handOffWork makes 50 round trips to another goroutine over unbuffered
// channels.
func (y *yardstick) handOffWork() {
	for i := 0; i < 50; i++ {
		y.ping <- i
		y.sum += uint64(<-y.pong)
	}
}

// chaseWork follows the ring 4000 dependent steps: the table is as large as
// a core's second-level cache, so the part feels who else uses the caches.
func (y *yardstick) chaseWork() {
	at := y.at
	for i := 0; i < 4000; i++ {
		at = y.ring[at]
	}
	y.at = at
}

// lookupWork looks 1536 string keys up in a 4096-entry map.
func (y *yardstick) lookupWork() {
	for i := 0; i < 1536; i++ {
		y.sum += uint64(y.byKey[y.keys[(i*37)&4095]])
	}
}
