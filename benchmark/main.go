// Command benchmark is the stack's performance instrument: it drives whole
// jobs through qpi.Run — locally, onto a device pool and over TCP — in
// closed loops, checks every result against references that do not share
// code with the stack, and reports what a caller pays (end-to-end metrics,
// measured with the benchmark's span recorder off) and, in a separate
// traced run, where each layer spends it (per-layer metrics).
//
// Usage:
//
//	go run ./benchmark -seed 1             # every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -trace 1    # every workload, per-layer metrics + benchmark/out/trace_<workload>.json
//	go run ./benchmark -workload cached_job -seed 1 -seconds 16 -trace 0
//	go run ./benchmark -seed 1 -out benchmark/results/<name>.json
//
// The last line each workload prints is its result as one JSON object.
// README.md explains every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times an untraced run sets the workload up, with
// a yardstick reading either side of each; setup_s is the median, and the
// window runs on the last one.
const setupRepeats = 5

// smokeSeconds is the window length of -smoke, which also sets up once.
const smokeSeconds = 0.2

// maxDumpedSpans bounds benchmark/out/trace_<workload>.json; shares are
// computed over every span recorded, dumped or not.
const maxDumpedSpans = 20000

// options are the command-line settings of one invocation.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int    // set-ups per untraced run
	outDir  string // where the traced run writes its spans
}

// result is what one workload reports; its JSON form is the line the
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// spread is the block minimum and maximum of the metrics that have
	// blocks; it is printed beside them, and is not part of the line.
	spread map[string][2]float64
}

// environment stamps a result file with what the numbers depend on.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Traced     bool    `json:"traced"`
}

func main() {
	var (
		opt   options
		name  = flag.String("workload", "", "run one workload (default: all)")
		trace = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		smoke = flag.Bool("smoke", false, "0.2 s windows, verification on")
		out   = flag.String("out", "", "also write the results, stamped with the environment, to this file")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 16, "length of the measured window")
	flag.Parse()
	opt.trace, opt.setups, opt.outDir = *trace != 0, setupRepeats, "benchmark/out"
	if *smoke {
		opt.seconds, opt.setups = smokeSeconds, 1
	}
	err := fmt.Errorf("unexpected argument %q", flag.Arg(0))
	if flag.NArg() == 0 {
		err = run(context.Background(), opt, *name, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run measures the chosen workloads and prints their results.
func run(ctx context.Context, opt options, name, out string) error {
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	chosen := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		chosen = []*workload{w}
	}
	results := map[string]*result{}
	for _, w := range chosen {
		res, err := runWorkload(ctx, w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		results[w.name] = res
	}
	if out == "" {
		return nil
	}
	return writeJSON(out, struct {
		Environment environment        `json:"environment"`
		Results     map[string]*result `json:"results"`
	}{stamp(opt), results})
}

// setUp generates the inputs, builds the workload and runs its fixed
// number of warm-up operations; next is the first operation number of the
// window.
func setUp(ctx context.Context, w *workload, seed int64) (*instance, *inputs, *atomic.Int64, error) {
	in := genInputs(seed)
	inst, err := w.build(in)
	if err != nil {
		return nil, nil, nil, err
	}
	next := &atomic.Int64{}
	for i := 0; i < w.warmup; i++ {
		if _, err := inst.op(ctx, int(next.Add(1)-1), false); err != nil {
			inst.close()
			return nil, nil, nil, fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return inst, in, next, nil
}

// verify runs the workload's reference programs on two fresh instances:
// the first must agree with the references, and the second — same program,
// same seed — must return exactly the first's counts.
func verify(ctx context.Context, w *workload, seed int64) error {
	var seen [2]string
	for n := range seen {
		inst, err := w.build(genInputs(seed))
		if err != nil {
			return err
		}
		seen[n], err = inst.check(ctx)
		inst.close()
		if err != nil {
			return fmt.Errorf("reference check: %w", err)
		}
	}
	if seen[0] != seen[1] {
		return fmt.Errorf("reference check: the same programs on a second fresh stack with the same seed returned different counts")
	}
	return nil
}

// runWorkload verifies, sets up and measures one workload.
func runWorkload(ctx context.Context, w *workload, opt options) (*result, error) {
	if w.callers > runtime.NumCPU() {
		return nil, fmt.Errorf("%d callers on %d CPUs: the load generator would compete with itself", w.callers, runtime.NumCPU())
	}
	if err := verify(ctx, w, opt.seed); err != nil {
		return nil, err
	}
	length := time.Duration(opt.seconds * float64(time.Second))
	fmt.Printf("workload %s  seed %d  callers %d  jobs/op %d\n", w.name, opt.seed, w.callers, w.jobsPerOp)
	if opt.trace {
		return runTraced(ctx, w, opt, length)
	}

	yard := w.newYardstick()
	defer yard.close()
	var inst *instance
	var next *atomic.Int64
	setups := make([]float64, opt.setups)
	reading := yard.read()
	for r := range setups {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, _, next, err = setUp(ctx, w, opt.seed); err != nil {
			return nil, err
		}
		seconds := time.Since(t0).Seconds()
		before := reading
		reading = yard.read()
		setups[r] = seconds * (before.speed + reading.speed) / 2
	}
	defer inst.close()
	win := runWindow(ctx, w, inst, next, length, nil, yard)
	if len(win.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", win.firstErr)
	}

	jobs := float64(len(win.ops) * w.jobsPerOp)
	rates := win.blockRates(w.jobsPerOp)
	values := map[string]float64{
		"op_ms_p50":      percentile(win.opMillis(), 0.5),
		"jobs_per_s":     median(rates),
		"allocs_per_job": float64(win.mallocs) / jobs,
		"bytes_per_job":  float64(win.bytes) / jobs,
		"setup_s":        median(setups),
	}
	metrics, err := fill(endToEnd, values)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: metrics,
		spread: map[string][2]float64{},
	}
	for name, blocks := range map[string][]float64{
		"op_ms_p50": win.blockMedians(), "jobs_per_s": rates, "setup_s": setups,
	} {
		lo, hi := minMax(blocks)
		res.spread[name] = [2]float64{lo, hi}
	}
	printResult(w, win, res, endToEnd)
	return res, nil
}

// runTraced measures one workload twice on one set-up — recorder off, then
// on — derives the layer metrics of its own jobs from the second window,
// probes every module, and writes the spans out.
func runTraced(ctx context.Context, w *workload, opt options, length time.Duration) (*result, error) {
	inst, in, next, err := setUp(ctx, w, opt.seed)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	yard := w.newYardstick()
	defer yard.close()
	untraced := runWindow(ctx, w, inst, next, length/2, nil, yard)
	rec := newRecorder()
	before := inst.cl.CacheStats()
	traced := runWindow(ctx, w, inst, next, length/2, rec, yard)
	after := inst.cl.CacheStats()
	if len(untraced.ops) == 0 || len(traced.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v %v", untraced.firstErr, traced.firstErr)
	}
	values := map[string]float64{}
	windowLayerMetrics(w, untraced, traced, rec.spans, before, after, values)
	if err := runProbes(ctx, in, values); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defs := perLayer()
	metrics, err := fill(defs, values)
	if err != nil {
		return nil, err
	}
	failed := untraced.failed + traced.failed
	res := &result{
		Correct: failed == 0, Attempted: untraced.attempted + traced.attempted, Failed: failed, Metrics: metrics,
	}
	printResult(w, untraced, res, defs)
	fmt.Printf("  tails are of %d untraced operations: p90 read at p%.1f, p99 at p%.1f (ten samples beyond each)\n",
		len(untraced.ops), 100*supportedTail(0.90, len(untraced.ops)), 100*supportedTail(0.99, len(untraced.ops)))
	return res, dumpTrace(w, opt, rec.spans)
}

// printResult prints a workload's metrics by name, with unit and spread.
func printResult(w *workload, win *window, res *result, defs []metricDef) {
	fmt.Printf("  window %.2f s  operations %d  failed %d  fail_share %.6f\n",
		win.wall.Seconds(), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if win.firstErr != nil {
		fmt.Printf("  first failure: %v\n", win.firstErr)
	}
	if w.timerBound {
		fmt.Printf("  times are as measured: the service time is a timer (%d rounds)\n", len(win.rounds))
	} else {
		speeds := make([]float64, len(win.rounds))
		for i, r := range win.rounds {
			speeds[i] = r.speed
		}
		lo, hi := minMax(speeds)
		fmt.Printf("  times are at nominal machine speed; the yardstick read %.3f × nominal (min %.3f, max %.3f) over %d rounds, %.3f at the median operation's time scale\n",
			median(speeds), lo, hi, len(speeds), win.opSpeed)
	}
	for _, d := range defs {
		mv := res.Metrics[d.Name]
		spread := ""
		if lohi, ok := res.spread[d.Name]; ok {
			spread = fmt.Sprintf("  (min %.6g, max %.6g)", lohi[0], lohi[1])
		}
		fmt.Printf("  %-48s %14.6g %-6s%s\n", d.Name, mv.Value, mv.Unit, spread)
	}
}

// dumpTrace writes the recorded spans, whole operations only, up to
// maxDumpedSpans.
func dumpTrace(w *workload, opt options, spans []span) error {
	dumped := spans
	if len(dumped) > maxDumpedSpans {
		dumped = dumped[:maxDumpedSpans]
		for len(dumped) > 0 && dumped[len(dumped)-1].Op == spans[len(dumped)].Op {
			dumped = dumped[:len(dumped)-1]
		}
	}
	return writeJSON(filepath.Join(opt.outDir, "trace_"+w.name+".json"), struct {
		Environment environment `json:"environment"`
		Workload    string      `json:"workload"`
		SpansTotal  int         `json:"spans_total"`
		Spans       []span      `json:"spans"`
	}{stamp(opt), w.name, len(spans), dumped})
}

// writeJSON writes v, indented, to path, creating its directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stamp describes the machine, the commit and the settings of a run.
func stamp(opt options) environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy is one) the commit stays unknown.
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	return env
}
