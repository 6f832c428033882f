package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values must be NaN")
	}
	unsorted := []float64{9, 1, 5, 3}
	if got := median(unsorted); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !reflect.DeepEqual(unsorted, []float64{9, 1, 5, 3}) {
		t.Error("median reordered its argument")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{{0.99, 10000, 0.99}, {0.99, 200, 0.95}, {0.90, 200, 0.90}, {0.90, 13, 0.5}} {
		if got := supportedTail(c.q, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedTail(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

func TestBlockRatesAndMedians(t *testing.T) {
	ms := time.Millisecond
	// Six blocks of 100 ms. Block 0 holds one round at nominal speed with
	// one operation; block 1 two rounds on a machine running at half speed,
	// so their busy times count half; block 5 a round that starts just
	// inside the window and one that starts past its end. The median
	// operation felt a machine at half speed, so every operation time counts
	// half.
	w := &window{length: 600 * ms, opSpeed: 0.5,
		rounds: []round{
			{start: 0, busy: 100 * ms, ops: 1, speed: 1},
			{start: 100 * ms, busy: 40 * ms, ops: 1, speed: 0.5},
			{start: 150 * ms, busy: 40 * ms, ops: 0, speed: 0.5},
			{start: 590 * ms, busy: 20 * ms, ops: 1, speed: 1},
			{start: 610 * ms, busy: 30 * ms, ops: 1, speed: 1},
		},
		ops: []opSample{
			{0, 100 * ms, 0}, {100 * ms, 140 * ms, 1}, {590 * ms, 610 * ms, 3}, {610 * ms, 640 * ms, 4},
		}}
	rates := w.blockRates(10) // 10 jobs an operation
	if want := []float64{100, 250, 400}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("block rates = %v, want %v", rates, want)
	}
	if got, want := w.blockMedians(), []float64{50, 20, 12.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("block medians = %v, want %v", got, want)
	}
	if got, want := w.opMillis(), []float64{10, 15, 20, 50}; !reflect.DeepEqual(got, want) {
		t.Errorf("operation times = %v, want %v", got, want)
	}
}

func TestYardstick(t *testing.T) {
	var none *yardstick
	if r := none.read(); r.speed != 1 || speedAt([]reading{r}, time.Millisecond) != 1 {
		t.Error("no yardstick must read speed 1")
	}
	none.close()
	y := newYardstick()
	defer y.close()
	r := y.read()
	if !(r.speed > 0) || math.IsInf(r.speed, 0) {
		t.Errorf("speed = %v", r.speed)
	}
	for p, its := range r.iters {
		if len(its) < 16 {
			t.Errorf("part %d: %d iterations in a slice", p, len(its))
		}
	}
	if s := speedAt([]reading{r}, 200*time.Microsecond); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("speed at 200 µs = %v", s)
	}
}

// TestSpeedAtTimeScale gives every part iterations of nominal length of
// which every tenth is stalled to ten times that: an operation as long as
// one iteration does not feel the stalls at its median, one as long as
// twenty iterations holds two of them.
func TestSpeedAtTimeScale(t *testing.T) {
	var r reading
	for p, part := range yardParts {
		for i := 0; i < 200; i++ {
			ns := uint32(part.nominal)
			if i%10 == 9 {
				ns *= 10
			}
			r.iters[p] = append(r.iters[p], ns)
		}
	}
	short := speedAt([]reading{r, r}, yardParts[0].nominal)
	if math.Abs(short-1) > 1e-9 {
		t.Errorf("speed at one iteration = %v, want 1", short)
	}
	long := speedAt([]reading{r, r}, 20*yardParts[0].nominal)
	if want := 20.0 / 38; math.Abs(long-want) > 0.05 {
		t.Errorf("speed at twenty iterations = %v, want about %v", long, want)
	}
	whole := speedAt([]reading{r, r}, time.Second)
	if want := 400.0 / 760; math.Abs(whole-want) > 1e-9 {
		t.Errorf("speed at all iterations = %v, want %v", whole, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 70},   // overlaps span 2: union 10..70
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 130},  // clipped to the parent's end
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 50},   // covers its parent wholly
		{ID: 6, Parent: 3, StartNs: 100, EndNs: 200}, // outside its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 0, 3: 40, 4: 40, 5: 40, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := genInputs(7), genInputs(7), genInputs(8)
	encode := func(in *inputs) string {
		data, err := json.Marshal([]any{in.devSeed, in.cold, in.angles, in.prios})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if encode(a) != encode(b) {
		t.Error("the same seed generated different inputs")
	}
	if encode(a) == encode(c) {
		t.Error("different seeds generated the same inputs")
	}
	if len(a.cold) != coldKernels || len(a.angles) != sweepPoints || len(a.prios) != burstJobs {
		t.Errorf("input sizes %d/%d/%d", len(a.cold), len(a.angles), len(a.prios))
	}
	perLength := map[int]int{}
	for _, gs := range a.cold {
		perLength[len(gs)]++
	}
	for n := minGates; n <= maxGates; n++ {
		if perLength[n] != coldKernels/(maxGates-minGates+1) {
			t.Fatalf("%d kernels of %d gates, want every length equally often", perLength[n], n)
		}
	}
}

func TestReferenceInterpreter(t *testing.T) {
	bell := []gate{{Name: "h", Q: 0}, {Name: "h", Q: 1}, {Name: "cz", Q: 0}, {Name: "h", Q: 1}}
	for mask, want := range [4]float64{0.5, 0, 0, 0.5} {
		if got := idealProbs(bell)[mask]; math.Abs(got-want) > 1e-12 {
			t.Errorf("Bell P(%02b) = %v, want %v", mask, got, want)
		}
	}
	// RX(θ) then a frame rotation leaves P(1) = sin²(θ/2); SX·SX = X.
	p := idealProbs([]gate{{Name: "rx", Q: 1, Theta: 1.2}, {Name: "rz", Q: 1, Theta: 0.7}, {Name: "sx", Q: 0}, {Name: "sx", Q: 0}})
	if want := math.Pow(math.Sin(0.6), 2); math.Abs(p[3]-want) > 1e-12 || math.Abs(p[1]+p[3]-1) > 1e-12 {
		t.Errorf("probabilities %v, want P(11) = %v and qubit 0 always 1", p, want)
	}
	noisy := withReadoutError([4]float64{1, 0, 0, 0}, 0.9)
	for mask, want := range [4]float64{0.81, 0.09, 0.09, 0.01} {
		if math.Abs(noisy[mask]-want) > 1e-12 {
			t.Errorf("readout error on |00⟩: P(%02b) = %v, want %v", mask, noisy[mask], want)
		}
	}
	if tv := tvDistance(map[uint64]int{0: 50, 3: 50}, 100, [4]float64{0.5, 0.25, 0, 0.25}); math.Abs(tv-0.25) > 1e-12 {
		t.Errorf("total-variation distance = %v, want 0.25", tv)
	}
	if checkCount("ones", 100, 80, 4) == nil || checkCount("ones", 100, 90, 4) != nil {
		t.Error("checkCount must refuse 10 sigma and accept 5 sigma")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestManifestAgreesWithProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e []metricDef
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.metricDef)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\n BENCHMARK.json %v\n program        %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer()) {
		t.Errorf("per-layer metrics differ:\n BENCHMARK.json %v\n program        %v", m.PerLayer, perLayer())
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
}

// TestSmoke is the -smoke mode: every workload, verification on, 0.2 s
// windows — and one traced run, so every probe and the trace dump execute.
func TestSmoke(t *testing.T) {
	opt := options{seed: 1, seconds: smokeSeconds, setups: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(context.Background(), w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(endToEnd) {
				t.Errorf("result %+v", res)
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		traced := opt
		traced.trace = true
		res, err := runWorkload(context.Background(), workloads[0], traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(perLayer()) {
			t.Errorf("result %+v", res)
		}
		if _, err := os.Stat(filepath.Join(opt.outDir, "trace_"+workloads[0].name+".json")); err != nil {
			t.Error(err)
		}
	})
}
