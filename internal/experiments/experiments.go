// Package experiments implements the reproduction harness: one experiment
// per figure, listing, and quantitative claim of the paper. Each
// experiment returns a Table that cmd/mqss-experiments renders.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"mqsspulse/internal/calib"
	"mqsspulse/internal/client"
	"mqsspulse/internal/compiler"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/vqe"
	"mqsspulse/internal/waveform"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// BellKernel builds the 2-qubit Bell benchmark kernel.
func BellKernel() *qpi.Circuit {
	c := qpi.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		panic(err)
	}
	return c
}

// PulseKernel builds the Listing-1-style pulse VQE kernel for a device.
func PulseKernel(dev *devices.SimDevice) *qpi.Circuit {
	amp := dev.CalibratedPiAmplitude(0)
	samples := make([]complex128, 32)
	for i := range samples {
		x := float64(i) - 15.5
		samples[i] = complex(amp*math.Exp(-x*x/72), 0)
	}
	c := qpi.NewCircuit("pulse_vqe_quantum_kernel", 2, 2).
		X(0).X(1).
		Waveform("waveform_1", samples).
		Waveform("waveform_2", samples).
		Waveform("waveform_3", samples).
		PlayWaveform("q0-drive", "waveform_1").
		PlayWaveform("q1-drive", "waveform_2").
		FrameChange("q0-drive", 4.9e9, 0.25).
		FrameChange("q1-drive", 5.05e9, -0.25).
		PlayWaveform("q0q1-coupler", "waveform_3").
		Measure(0, 0).Measure(1, 1)
	if err := c.End(); err != nil {
		panic(err)
	}
	return c
}

func dur(d time.Duration) string { return fmt.Sprintf("%.3gµs", float64(d.Nanoseconds())/1e3) }

// stackOver registers the devices with a fresh driver and returns a client
// over them; the caller closes it.
func stackOver(devs ...qdmi.Device) (*client.Client, error) {
	drv := qdmi.NewDriver()
	for _, d := range devs {
		if err := drv.RegisterDevice(d); err != nil {
			return nil, err
		}
	}
	return client.New(drv.OpenSession()), nil
}

// F1TopDown traces Fig. 1: per-stage lowering cost and artifact sizes as a
// kernel descends algorithm → circuit → MLIR → scheduled pulses → QIR.
func F1TopDown(ctx context.Context) (*Table, error) {
	dev, err := devices.Superconducting("f1-sc", 2, 101)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "EXP-F1",
		Title:   "Top-down flow (Fig. 1): per-stage lowering of gate and pulse kernels",
		Columns: []string{"kernel", "stage", "time", "artifact"},
	}
	for _, k := range []*qpi.Circuit{BellKernel(), PulseKernel(dev)} {
		res, err := compileDetail(k, dev)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			[]string{k.Name(), "frontend (QPI→MLIR)", dur(res.frontend), fmt.Sprintf("%d MLIR ops", res.mlirOps)},
			[]string{k.Name(), "midend (pass pipeline)", dur(res.midend), fmt.Sprintf("%d MLIR ops after", res.mlirOpsAfter)},
			[]string{k.Name(), "backend (MLIR→QIR)", dur(res.backend), fmt.Sprintf("%d QIR calls, %d B payload", res.qirCalls, res.payloadBytes)},
			[]string{k.Name(), "link+schedule (QDMI)", dur(res.link), fmt.Sprintf("%d instr, %.3g µs waveforms", res.schedInstr, res.schedSeconds*1e6)},
		)
	}
	t.Notes = append(t.Notes, "every stage of Fig. 1 is exercised; waveform µs is the physical schedule makespan")
	return t, nil
}

type compileDetailResult struct {
	frontend, midend, backend, link time.Duration
	mlirOps, mlirOpsAfter           int
	qirCalls, payloadBytes          int
	schedInstr                      int
	schedSeconds                    float64
}

// compileDetail reads one compile's stage timings and sizes from its own
// Result, then times the device's link of the payload.
func compileDetail(k *qpi.Circuit, dev *devices.SimDevice) (*compileDetailResult, error) {
	res, err := compiler.Compile(k, dev)
	if err != nil {
		return nil, err
	}
	out := &compileDetailResult{
		frontend: res.Timings.Frontend, midend: res.Timings.Midend, backend: res.Timings.Backend,
		mlirOps: res.Timings.Passes[0].OpsIn, mlirOpsAfter: res.MLIR.OpCount(),
		qirCalls: len(res.QIR.Body), payloadBytes: len(res.Payload),
	}

	start := time.Now()
	parsed, err := qir.ParseModule(string(res.Payload))
	if err != nil {
		return nil, err
	}
	sched, err := dev.BuildScheduleForPayload(parsed)
	if err != nil {
		return nil, err
	}
	sp, err := sched.Resolve()
	if err != nil {
		return nil, err
	}
	out.link = time.Since(start)
	out.schedInstr = sched.Len()
	out.schedSeconds = sp.TotalDurationSeconds()
	return out, nil
}

// F2EndToEnd measures Fig. 2's architecture path: throughput and latency of
// adapter → client → QRM → JIT → QDMI → device for gate vs pulse payloads,
// locally and over the remote TCP path.
func F2EndToEnd(ctx context.Context) (*Table, error) {
	dev, err := devices.Superconducting("f2-sc", 2, 102)
	if err != nil {
		return nil, err
	}
	cl, err := stackOver(dev)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	t := &Table{
		ID:      "EXP-F2",
		Title:   "End-to-end architecture (Fig. 2): submit→result latency",
		Columns: []string{"path", "payload", "jobs", "mean latency", "jobs/s"},
	}
	measure := func(path, payload string, n int, run func() error) error {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := run(); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		t.Rows = append(t.Rows, []string{
			path, payload, fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2fms", float64(elapsed.Microseconds())/float64(n)/1e3),
			fmt.Sprintf("%.1f", float64(n)/elapsed.Seconds()),
		})
		return nil
	}
	const jobs = 20
	gate := BellKernel()
	pulseK := PulseKernel(dev)
	if err := measure("local", "gate (bell)", jobs, func() error {
		_, err := cl.RunCtx(ctx, gate, "f2-sc", client.SubmitOptions{Shots: 256})
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("local", "pulse (listing 1)", jobs, func() error {
		_, err := cl.RunCtx(ctx, pulseK, "f2-sc", client.SubmitOptions{Shots: 256})
		return err
	}); err != nil {
		return nil, err
	}
	srv, err := client.NewServer(cl, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	remote, err := client.NewRemoteAdapter(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	payload, format, err := cl.Compile(gate, "f2-sc")
	if err != nil {
		return nil, err
	}
	if err := measure("remote (TCP)", "gate (bell)", jobs, func() error {
		_, err := remote.SubmitPayloadCtx(ctx, "f2-sc", payload, format, client.SubmitOptions{Shots: 256})
		return err
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "local and remote paths execute on the same simulated QPU; remote adds serialization + TCP")
	return t, nil
}

// F3QDMI measures Fig. 3's interface: query latencies across the three
// entity levels and pulse-capability discovery for the three technologies.
func F3QDMI(ctx context.Context) (*Table, error) {
	sc, _ := devices.Superconducting("f3-sc", 2, 103)
	ion, _ := devices.TrappedIon("f3-ion", 2, 103)
	atom, _ := devices.NeutralAtom("f3-atom", 2, 103)
	t := &Table{
		ID:      "EXP-F3",
		Title:   "QDMI interface (Fig. 3): query latency and pulse discovery",
		Columns: []string{"device", "query", "iterations", "ns/query", "answer"},
	}
	for _, dev := range []*devices.SimDevice{sc, ion, atom} {
		const iters = 100000
		cases := []struct {
			name string
			run  func() (any, error)
		}{
			{"device: pulse support", func() (any, error) { return qdmi.QueryPulseSupport(dev) }},
			{"device: sample rate", func() (any, error) { return qdmi.QueryFloat(dev, qdmi.DevicePropSampleRateHz) }},
			{"site: frequency", func() (any, error) { return dev.QuerySiteProperty(0, qdmi.SitePropFrequencyHz) }},
			{"operation: x fidelity", func() (any, error) { return dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropFidelity) }},
			{"port: granularity", func() (any, error) { return dev.QueryPortProperty("q0-drive", qdmi.PortPropGranularity) }},
		}
		for _, c := range cases {
			ans, err := c.run()
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := c.run(); err != nil {
					return nil, err
				}
			}
			perQuery := float64(time.Since(start).Nanoseconds()) / iters
			t.Rows = append(t.Rows, []string{
				dev.Name(), c.name, fmt.Sprintf("%d", iters),
				fmt.Sprintf("%.0f", perQuery), fmt.Sprintf("%v", ans),
			})
		}
	}
	t.Notes = append(t.Notes, "sub-microsecond queries support JIT-time constraint discovery (header-only C library analogue)")
	return t, nil
}

// L1Overhead reproduces the Section 5.1 claim: the compiled QPI has far
// lower per-submission overhead than a scripting-style interpreted
// interface. Measured is the classical cost only (construct + compile);
// the compiler is called directly, so every iteration pays the full JIT.
func L1Overhead(ctx context.Context) (*Table, error) {
	dev, err := devices.Superconducting("l1-sc", 2, 104)
	if err != nil {
		return nil, err
	}
	interp := &client.InterpretedAdapter{Target: "l1-sc"}

	program := interpretedPulseProgram(dev)
	const iters = 300

	buildCompiled := func() (*qpi.Circuit, error) {
		k := PulseKernel(dev)
		return k, k.Err()
	}

	t := &Table{
		ID:      "EXP-L1",
		Title:   "Compiled QPI vs interpreted adapter (Listing 1 / §5.1): per-iteration classical overhead",
		Columns: []string{"path", "phase", "iterations", "µs/iter"},
	}
	timeIt := func(name, phase string, f func() error) error {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		t.Rows = append(t.Rows, []string{name, phase, fmt.Sprintf("%d", iters),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/iters)})
		return nil
	}
	if err := timeIt("compiled QPI", "construct", func() error {
		_, err := buildCompiled()
		return err
	}); err != nil {
		return nil, err
	}
	if err := timeIt("interpreted", "parse+construct", func() error {
		_, err := interp.ParseProgram(program)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timeIt("compiled QPI", "construct+compile", func() error {
		k, err := buildCompiled()
		if err != nil {
			return err
		}
		_, err = compiler.Compile(k, dev)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timeIt("interpreted", "parse+construct+compile", func() error {
		k, err := interp.ParseProgram(program)
		if err != nil {
			return err
		}
		_, err = compiler.Compile(k, dev)
		return err
	}); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"construct-phase ratio is the paper's compiled-vs-scripted API overhead claim",
		"both paths share the identical JIT compile, so the delta isolates the interface cost")
	return t, nil
}

// interpretedPulseProgram renders the Listing-1 kernel in the interpreted
// adapter's textual grammar.
func interpretedPulseProgram(dev *devices.SimDevice) string {
	amp := dev.CalibratedPiAmplitude(0)
	var sb strings.Builder
	sb.WriteString("circuit pulse_vqe_quantum_kernel 2 2\nx 0\nx 1\n")
	for wi := 1; wi <= 3; wi++ {
		fmt.Fprintf(&sb, "waveform waveform_%d", wi)
		for i := 0; i < 32; i++ {
			x := float64(i) - 15.5
			fmt.Fprintf(&sb, " %.9f,0", amp*math.Exp(-x*x/72))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("play q0-drive waveform_1\nplay q1-drive waveform_2\n")
	sb.WriteString("framechange q0-drive 4.9e9 0.25\nframechange q1-drive 5.05e9 -0.25\n")
	sb.WriteString("play q0q1-coupler waveform_3\nmeasure 0 0\nmeasure 1 1\n")
	return sb.String()
}

// L2MLIR measures the Listing 2 path: parse, verify, and run the pass
// pipeline over the pulse-dialect kernel; report op counts per pass.
func L2MLIR(ctx context.Context) (*Table, error) {
	dev, err := devices.Superconducting("l2-sc", 2, 105)
	if err != nil {
		return nil, err
	}
	m, err := compiler.Frontend(PulseKernel(dev), dev)
	if err != nil {
		return nil, err
	}
	text := m.Print()

	t := &Table{
		ID:      "EXP-L2",
		Title:   "MLIR pulse dialect (Listing 2): parse/verify/pipeline costs",
		Columns: []string{"step", "time", "ops in", "ops out"},
	}
	const iters = 200
	start := time.Now()
	var parsed *mlir.Module
	for i := 0; i < iters; i++ {
		parsed, err = mlir.Parse(text)
		if err != nil {
			return nil, err
		}
	}
	t.Rows = append(t.Rows, []string{"parse", fmt.Sprintf("%.1fµs",
		float64(time.Since(start).Microseconds())/iters),
		fmt.Sprintf("%d", parsed.OpCount()), fmt.Sprintf("%d", parsed.OpCount())})

	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := parsed.Verify(); err != nil {
			return nil, err
		}
	}
	t.Rows = append(t.Rows, []string{"verify", fmt.Sprintf("%.1fµs",
		float64(time.Since(start).Microseconds())/iters),
		fmt.Sprintf("%d", parsed.OpCount()), fmt.Sprintf("%d", parsed.OpCount())})

	pctx := passes.NewContext(dev)
	work, err := mlir.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := passes.DefaultPipeline().Run(work, pctx); err != nil {
		return nil, err
	}
	for _, pt := range pctx.Timings {
		t.Rows = append(t.Rows, []string{"pass: " + pt.Pass, dur(pt.Duration),
			fmt.Sprintf("%d", pt.OpsIn), fmt.Sprintf("%d", pt.OpsOut)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("pipeline stats: %v", pctx.Stats))
	return t, nil
}

// L3QIR measures the Listing 3 path: QIR pulse-profile emit → parse →
// verify → link against all three device runtimes.
func L3QIR(ctx context.Context) (*Table, error) {
	sc, _ := devices.Superconducting("l3-sc", 2, 106)
	ion, _ := devices.TrappedIon("l3-ion", 2, 106)
	atom, _ := devices.NeutralAtom("l3-atom", 2, 106)

	t := &Table{
		ID:      "EXP-L3",
		Title:   "QIR pulse profile (Listing 3): exchange roundtrip and device linking",
		Columns: []string{"device", "step", "µs/op", "detail"},
	}
	for _, dev := range []*devices.SimDevice{sc, ion, atom} {
		kernel := PulseKernel(dev)
		res, err := compiler.Compile(kernel, dev)
		if err != nil {
			return nil, err
		}
		text := string(res.Payload)
		const iters = 200

		start := time.Now()
		for i := 0; i < iters; i++ {
			_ = res.QIR.Emit()
		}
		t.Rows = append(t.Rows, []string{dev.Name(), "emit",
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/iters),
			fmt.Sprintf("%d bytes", len(text))})

		start = time.Now()
		var parsed *qir.Module
		for i := 0; i < iters; i++ {
			parsed, err = qir.ParseModule(text)
			if err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, []string{dev.Name(), "parse+verify",
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/iters),
			fmt.Sprintf("%d calls", len(parsed.Body))})

		start = time.Now()
		var instr int
		for i := 0; i < iters; i++ {
			sched, err := dev.BuildScheduleForPayload(parsed)
			if err != nil {
				return nil, err
			}
			instr = sched.Len()
		}
		t.Rows = append(t.Rows, []string{dev.Name(), "link (intrinsics→runtime)",
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/iters),
			fmt.Sprintf("%d schedule instr", instr)})
	}
	t.Notes = append(t.Notes, "the identical exchange payload structure links against all three technology runtimes")
	return t, nil
}

// C1Calibration reproduces the Section 2.1 calibration claims: parameter
// drift on technology-specific timescales, and scheduled calibration
// keeping benchmark error bounded while an uncalibrated twin degrades.
func C1Calibration(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "EXP-C1",
		Title:   "Automated calibration under drift (§2.1): scheduled vs none",
		Columns: []string{"technology", "simulated", "cadence", "cals", "ramsey err (cal)", "ramsey err (none)", "train err (cal)", "train err (none)"},
	}
	type techCase struct {
		name     string
		make     func(string, int64) (*devices.SimDevice, error)
		hours    float64
		stepSec  float64
		tauBench float64
		trainN   int
	}
	cases := []techCase{
		{"superconducting", func(n string, s int64) (*devices.SimDevice, error) { return devices.Superconducting(n, 1, s) },
			8, 1200, 3e-6, 11},
		{"trapped-ion", func(n string, s int64) (*devices.SimDevice, error) { return devices.TrappedIon(n, 1, s) },
			24, 3600, 100e-6, 11},
		{"neutral-atom", func(n string, s int64) (*devices.SimDevice, error) { return devices.NeutralAtom(n, 1, s) },
			1, 120, 20e-6, 11},
	}
	const seed = 2026
	const shots = 1500
	for _, tc := range cases {
		calDev, err := tc.make(tc.name+"-cal", seed)
		if err != nil {
			return nil, err
		}
		rawDev, err := tc.make(tc.name+"-raw", seed)
		if err != nil {
			return nil, err
		}
		policy, err := calib.PolicyFor(calDev)
		if err != nil {
			return nil, err
		}
		cl, err := stackOver(calDev, rawDev)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		sched := calib.NewScheduler(cl, calDev, policy)
		steps := int(tc.hours * 3600 / tc.stepSec)
		var sumRamCal, sumRamRaw, sumTrainCal, sumTrainRaw float64
		n := 0
		for s := 0; s < steps; s++ {
			calDev.AdvanceTime(tc.stepSec)
			rawDev.AdvanceTime(tc.stepSec)
			if _, err := sched.Tick(ctx); err != nil {
				return nil, err
			}
			rc, err := calib.RamseyErrorBenchmark(ctx, cl, calDev, 0, tc.tauBench, shots)
			if err != nil {
				return nil, err
			}
			rr, err := calib.RamseyErrorBenchmark(ctx, cl, rawDev, 0, tc.tauBench, shots)
			if err != nil {
				return nil, err
			}
			tcal, err := calib.PulseTrainBenchmark(ctx, cl, calDev, 0, tc.trainN, shots)
			if err != nil {
				return nil, err
			}
			traw, err := calib.PulseTrainBenchmark(ctx, cl, rawDev, 0, tc.trainN, shots)
			if err != nil {
				return nil, err
			}
			sumRamCal += rc
			sumRamRaw += rr
			sumTrainCal += tcal
			sumTrainRaw += traw
			n++
		}
		t.Rows = append(t.Rows, []string{
			tc.name,
			fmt.Sprintf("%.0fh", tc.hours),
			fmt.Sprintf("every %.0fs", policy.RamseyEverySeconds),
			fmt.Sprintf("%d", len(sched.Events)),
			fmt.Sprintf("%.3f", sumRamCal/float64(n)),
			fmt.Sprintf("%.3f", sumRamRaw/float64(n)),
			fmt.Sprintf("%.3f", sumTrainCal/float64(n)),
			fmt.Sprintf("%.3f", sumTrainRaw/float64(n)),
		})
	}
	t.Notes = append(t.Notes,
		"ramsey err exposes frequency drift (dominant for SC/atom); train err exposes drive-amplitude drift (dominant for ions)",
		"both devices share one drift realization (same seed); only calibration differs")
	return t, nil
}

// C2OptimalControl reproduces the Section 2.1 optimal-control claim:
// open-loop GRAPE degrades under model mismatch; closed-loop and hybrid
// strategies recover fidelity. Every device column comes from client jobs.
func C2OptimalControl(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "EXP-C2",
		Title:   "Open- vs closed-loop pulse engineering under model mismatch (§2.1)",
		Columns: []string{"detune", "amp err", "open(model)", "open(device)", "closed", "hybrid"},
	}
	cases := []struct{ detuneHz, ampErr float64 }{{0, 0}, {1e6, 0}, {3e6, 0}, {3e6, 0.05}, {6e6, 0.05}}
	for i, c := range cases {
		dev, err := devices.Superconducting("c2-sc", 1, int64(300+i))
		if err != nil {
			return nil, err
		}
		cl, err := stackOver(dev)
		if err != nil {
			return nil, err
		}
		staleCalibration(dev, c.detuneHz, c.ampErr)
		res, err := calib.RunMismatchStudy(ctx, cl, dev, 0, c2Shots, int64(300+i))
		cl.Close()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f MHz", c.detuneHz/1e6),
			fmt.Sprintf("%+.0f%%", c.ampErr*100),
			fmt.Sprintf("%.5f", res.GrapeF),
			fmt.Sprintf("%.4f", res.OpenLoopF),
			fmt.Sprintf("%.4f", res.ClosedLoopF),
			fmt.Sprintf("%.4f", res.HybridF),
		})
	}
	t.Notes = append(t.Notes,
		"X gate on a 3-level sc transmon; GRAPE's model is what QDMI advertises, the mismatch is stale calibration",
		fmt.Sprintf("device values: F̂ = ½[P(1|pulse) + P(0|pulse²)] at %d shots a job, re-measured fresh; σ(F̂) ≤ √(F̂(1−F̂)/%d)", c2Shots, 2*c2Shots),
		"hybrid = GRAPE solution refined by SPSA on the device (the strategy the paper reports as increasingly adopted)")
	return t, nil
}

// c2Shots is EXP-C2's shots per job.
const c2Shots = 2000

// staleCalibration leaves dev's calibration of site 0 as drift would: its
// frequency detuneHz below the truth and its π amplitude ampErr hot, written
// with the device's own calibration writers.
func staleCalibration(dev *devices.SimDevice, detuneHz, ampErr float64) {
	dev.SetCalibratedFrequency(0, dev.CalibratedFrequency(0)-detuneHz)
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*(1+ampErr))
}

// C3CtrlVQE reproduces the Section 2.1 ctrl-VQE claim: the pulse-level
// ansatz shortens the schedule and lowers energy error under decoherence
// relative to the gate-level ansatz.
func C3CtrlVQE(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "EXP-C3",
		Title:   "Gate VQE vs ctrl-VQE on H2 (§2.1): energy error and schedule duration",
		Columns: []string{"device", "ansatz", "schedule", "energy", "error vs exact", "evals"},
	}
	h := vqe.H2Minimal()
	exact, err := h.GroundEnergy()
	if err != nil {
		return nil, err
	}
	type devCase struct {
		label string
		make  func() (*devices.SimDevice, error)
	}
	cases := []devCase{
		{"sc (T1=80µs)", func() (*devices.SimDevice, error) {
			return devices.Superconducting("c3-good", 2, 401)
		}},
		{"sc noisy (T1=1.5µs)", func() (*devices.SimDevice, error) {
			return devices.SuperconductingWithCoherence("c3-noisy", 2, 1.5e-6, 1.2e-6, 401)
		}},
	}
	for _, dc := range cases {
		dev, err := dc.make()
		if err != nil {
			return nil, err
		}
		gres, pres, err := c3Pair(ctx, dev, h)
		if err != nil {
			return nil, err
		}
		for _, r := range []struct {
			ansatz string
			res    *vqe.RunResult
		}{{"gate (RY+CZ, 2 layers)", gres}, {"ctrl-VQE (Listing 1)", pres}} {
			t.Rows = append(t.Rows, []string{dc.label, r.ansatz,
				fmt.Sprintf("%.3gµs", r.res.ScheduleSeconds*1e6),
				fmt.Sprintf("%.4f", r.res.Energy),
				fmt.Sprintf("%.4f", r.res.Energy-exact),
				fmt.Sprintf("%d", r.res.Evals)})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("exact ground energy %.4f Ha; Hartree-Fock reference -1.8370 Ha", exact),
		"negative error = below exact, possible with shot noise + readout error; compare magnitudes")
	return t, nil
}

// c3Shots is EXP-C3's shots per measurement group.
const c3Shots = 700

// c3Pair runs EXP-C3's two VQEs of h on dev through a fresh stack: the RY/CZ
// gate ansatz, then ctrl-VQE's pulse ansatz.
func c3Pair(ctx context.Context, dev *devices.SimDevice, h *vqe.Hamiltonian) (gate, pulse *vqe.RunResult, err error) {
	cl, err := stackOver(dev)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	gate, err = vqe.Run(ctx, cl, dev.Name(), h, &vqe.GateAnsatz{Qubits: 2, Layers: 2},
		[]float64{math.Pi - 0.2, 0.2, -0.1, 0.1, -0.2, 0.2}, vqe.Options{Shots: c3Shots, MaxEvals: 90, InitStep: 0.3})
	if err != nil {
		return nil, nil, err
	}
	pa, err := vqe.NewPulseAnsatz(dev, 2)
	if err != nil {
		return nil, nil, err
	}
	pulse, err = vqe.Run(ctx, cl, dev.Name(), h, pa, []float64{0.9, 0.15, 0.0, 0.0, 0.1},
		vqe.Options{Shots: c3Shots, MaxEvals: 70, InitStep: 0.15})
	return gate, pulse, err
}

// benchRig builds the 2-transmon (d=3) bench system — anharmonic drift, two
// drive channels, a ZZ coupler, the given collapses — and a schedule that
// plays w on all three ports simultaneously. The caller appends whatever
// follows the plays and resolves the schedule.
func benchRig(w *waveform.Waveform, collapses []simq.Collapse) (*simq.Executor, *pulse.Schedule, error) {
	dims := []int{3, 3}
	drift := simq.TransmonDrift(dims, 0, 0, -220e6).Add(simq.TransmonDrift(dims, 1, 0, -210e6))
	model, err := simq.NewSystemModel(dims, drift, []*simq.ControlChannel{
		simq.TransmonDriveChannel("d0", dims, 0, 40e6, 5.0e9),
		simq.TransmonDriveChannel("d1", dims, 1, 40e6, 5.1e9),
		simq.ZZCouplerChannel("c01", dims, 0, 2e6),
	}, collapses)
	if err != nil {
		return nil, nil, err
	}
	s := pulse.NewSchedule()
	for _, p := range []struct {
		port  *pulse.Port
		frame *pulse.Frame
	}{
		{&pulse.Port{ID: "d0", Kind: pulse.PortDrive, Sites: []int{0}, SampleRateHz: 1e9, MaxAmplitude: 1}, pulse.NewFrame("f0", 5.0e9)},
		{&pulse.Port{ID: "d1", Kind: pulse.PortDrive, Sites: []int{1}, SampleRateHz: 1e9, MaxAmplitude: 1}, pulse.NewFrame("f1", 5.1e9)},
		{&pulse.Port{ID: "c01", Kind: pulse.PortCoupler, Sites: []int{0, 1}, SampleRateHz: 1e9, MaxAmplitude: 1}, pulse.NewFrame("fc", 0)},
	} {
		if err := s.AddPort(p.port); err != nil {
			return nil, nil, err
		}
		if err := s.AddFrame(p.frame); err != nil {
			return nil, nil, err
		}
		if err := s.Append(&pulse.Play{Port: p.port.ID, Frame: p.frame.ID, Waveform: w}); err != nil {
			return nil, nil, err
		}
	}
	return simq.NewExecutor(model), s, nil
}

// EvolveBenchRig is the pulse-integration workload of the benchmark's simq
// layer probes: the envelope played on every port of the benchRig system.
func EvolveBenchRig(env waveform.Envelope, samples int, collapses []simq.Collapse) (*simq.Executor, *pulse.ScheduledProgram, error) {
	w, err := env.Materialize("w", samples)
	if err != nil {
		return nil, nil, err
	}
	ex, s, err := benchRig(w, collapses)
	if err != nil {
		return nil, nil, err
	}
	sp, err := s.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return ex, sp, nil
}

// ShotBenchRig is the open-system shots job of the benchmark's simq layer
// probes: the benchRig system with T1/T2 collapses on both sites, driven by
// square pulses — constant-χ stretches, the density engine's
// cached-propagator path — followed by an idle gap and one capture per
// site.
func ShotBenchRig() (*simq.Executor, *pulse.ScheduledProgram, error) {
	dims := []int{3, 3}
	collapses := append(simq.RelaxationCollapses(dims, 0, 25e-6, 18e-6),
		simq.RelaxationCollapses(dims, 1, 30e-6, 21e-6)...)
	w, err := waveform.Constant{Amplitude: 0.5}.Materialize("w", 256)
	if err != nil {
		return nil, nil, err
	}
	ex, s, err := benchRig(w, collapses)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Append(&pulse.Barrier{}); err != nil {
		return nil, nil, err
	}
	if err := s.Append(&pulse.Delay{Port: "d0", Samples: 256}); err != nil {
		return nil, nil, err
	}
	for bit, port := range []string{"d0", "d1"} {
		frame := []string{"f0", "f1"}[bit]
		if err := s.Append(&pulse.Capture{Port: port, Frame: frame, Bit: bit, DurationSamples: 128}); err != nil {
			return nil, nil, err
		}
	}
	sp, err := s.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return ex, sp, nil
}

// Experiment is one entry of the reproduction table list.
type Experiment struct {
	ID  string
	Run func(context.Context) (*Table, error)
}

// Experiments lists every experiment in the order -all runs them.
var Experiments = []Experiment{
	{"EXP-F1", F1TopDown},
	{"EXP-F2", F2EndToEnd},
	{"EXP-F3", F3QDMI},
	{"EXP-L1", L1Overhead},
	{"EXP-L2", L2MLIR},
	{"EXP-L3", L3QIR},
	{"EXP-C1", C1Calibration},
	{"EXP-C2", C2OptimalControl},
	{"EXP-C3", C3CtrlVQE},
}

// ByID resolves one experiment by its table ID, case-insensitively.
func ByID(id string) (func(context.Context) (*Table, error), bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e.Run, true
		}
	}
	return nil, false
}
