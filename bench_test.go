// Benchmark harness: one testing.B benchmark per reproduction experiment
// (EXP-F1..F3, EXP-L1..L3, EXP-C1..C3) plus the ablation benches.
// The full experiment tables are regenerated by `go run ./cmd/mqss-bench`;
// these benches time the hot paths of each experiment so regressions
// surface in `go test -bench`.
package mqsspulse_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	mqsspulse "mqsspulse"
	"mqsspulse/internal/calib"
	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/experiments"
	"mqsspulse/internal/linalg"
	"mqsspulse/internal/mlir"
	"mqsspulse/internal/optctl"
	"mqsspulse/internal/passes"
	"mqsspulse/internal/pulse"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/simq"
	"mqsspulse/internal/vqe"
	"mqsspulse/internal/waveform"
)

func benchDevice(b *testing.B) *devices.SimDevice {
	b.Helper()
	dev, err := devices.Superconducting("bench-sc", 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func benchStack(b *testing.B) (*mqsspulse.Stack, *devices.SimDevice) {
	b.Helper()
	dev := benchDevice(b)
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stack.Close)
	return stack, dev
}

// --- EXP-F1: top-down lowering (Fig. 1) ---

func BenchmarkF1TopDownLoweringGate(b *testing.B) {
	dev := benchDevice(b)
	k := experiments.BellKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mqsspulse.Compile(k, dev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1TopDownLoweringPulse(b *testing.B) {
	dev := benchDevice(b)
	k := experiments.PulseKernel(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mqsspulse.Compile(k, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-F2: end-to-end architecture (Fig. 2) ---

func BenchmarkF2EndToEndGate(b *testing.B) {
	stack, _ := benchStack(b)
	k := experiments.BellKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stack.Client.RunCtx(context.Background(), k, "bench-sc", mqsspulse.SubmitOptions{Shots: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF2EndToEndPulse(b *testing.B) {
	stack, dev := benchStack(b)
	k := experiments.PulseKernel(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stack.Client.RunCtx(context.Background(), k, "bench-sc", mqsspulse.SubmitOptions{Shots: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF2EndToEndRemote(b *testing.B) {
	stack, _ := benchStack(b)
	srv, err := mqsspulse.NewServer(stack.Client, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	remote, err := mqsspulse.NewRemoteAdapter(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	payload, format, err := stack.Client.Compile(experiments.BellKernel(), "bench-sc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.SubmitPayloadCtx(context.Background(), "bench-sc", payload, format, mqsspulse.SubmitOptions{Shots: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-F3: QDMI query interface (Fig. 3) ---

func BenchmarkF3QDMIQueryDevice(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qdmi.QueryPulseSupport(dev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3QDMIQuerySite(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.QuerySiteProperty(0, qdmi.SitePropFrequencyHz); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3QDMIQueryOperationFidelity(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.QueryOperationProperty("x", []int{0}, qdmi.OpPropFidelity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3QDMIDefaultPulse(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.DefaultPulse("x", []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-L1: compiled vs interpreted adapter (Listing 1, §5.1) ---

func BenchmarkL1CompiledConstruct(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := experiments.PulseKernel(dev)
		if k.Err() != nil {
			b.Fatal(k.Err())
		}
	}
}

func BenchmarkL1InterpretedConstruct(b *testing.B) {
	stack, dev := benchStack(b)
	adapter := &client.InterpretedAdapter{Client: stack.Client, Target: "bench-sc"}
	program := experiments.InterpretedPulseProgram(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapter.ParseProgram(program); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-L2: MLIR pulse dialect pipeline (Listing 2) ---

func BenchmarkL2MLIRParse(b *testing.B) {
	dev := benchDevice(b)
	res, err := mqsspulse.Compile(experiments.PulseKernel(dev), dev)
	if err != nil {
		b.Fatal(err)
	}
	text := res.MLIR.Print()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlir.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL2MLIRPipeline(b *testing.B) {
	dev := benchDevice(b)
	k := experiments.PulseKernel(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := mqsspulse.Compile(k, dev) // fresh module per iteration
		if err != nil {
			b.Fatal(err)
		}
		mod := m.MLIR
		b.StartTimer()
		if err := passes.DefaultPipeline().Run(mod, passes.NewContext(dev)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-L3: QIR exchange roundtrip (Listing 3) ---

func BenchmarkL3QIREmit(b *testing.B) {
	dev := benchDevice(b)
	res, err := mqsspulse.Compile(experiments.PulseKernel(dev), dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.QIR.Emit()
	}
}

func BenchmarkL3QIRParse(b *testing.B) {
	dev := benchDevice(b)
	res, err := mqsspulse.Compile(experiments.PulseKernel(dev), dev)
	if err != nil {
		b.Fatal(err)
	}
	text := string(res.Payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qir.ParseModule(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL3QIRLink(b *testing.B) {
	dev := benchDevice(b)
	res, err := mqsspulse.Compile(experiments.PulseKernel(dev), dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.BuildScheduleForPayload(res.QIR); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C1: calibration (§2.1) ---

func BenchmarkC1RamseyBenchmark(b *testing.B) {
	dev := benchDevice(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.RamseyErrorBenchmark(context.Background(), dev, 0, 3e-6, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC1RamseyCalibration(b *testing.B) {
	dev := benchDevice(b)
	dev.SetCalibratedFrequency(0, dev.TrueFrequency(0)+150e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.RamseyCalibrate(context.Background(), dev, 0, 1e6, 12, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C2: optimal control (§2.1) ---

func BenchmarkC2GRAPEIteration(b *testing.B) {
	prob := &optctl.TransmonXProblem{Slots: 32, Dt: 1e-9, AnharmHz: -220e6, RabiHz: 40e6}
	target, proj := optctl.TargetX()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optctl.GrapeUnitary(prob.ModelSystem(), target, proj,
			prob.GaussianSeed(), optctl.GrapeOptions{Iters: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC2PulsePropagation(b *testing.B) {
	prob := &optctl.TransmonXProblem{Slots: 32, Dt: 1e-9, AnharmHz: -220e6, RabiHz: 40e6}
	cs := prob.ModelSystem()
	p := prob.GaussianSeed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Propagate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-C3: ctrl-VQE (§2.1) ---

func BenchmarkC3GateAnsatzEnergy(b *testing.B) {
	dev := benchDevice(b)
	h := vqe.H2Minimal()
	a := &vqe.GateAnsatz{Qubits: 2, Layers: 1}
	est := &vqe.Estimator{Dev: dev, Shots: 128}
	params := []float64{math.Pi - 0.2, 0.2, -0.2, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.Energy(context.Background(), h, a, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC3PulseAnsatzEnergy(b *testing.B) {
	dev := benchDevice(b)
	h := vqe.H2Minimal()
	a, err := vqe.NewPulseAnsatz(dev, 2)
	if err != nil {
		b.Fatal(err)
	}
	est := &vqe.Estimator{Dev: dev, Shots: 128}
	params := []float64{0.9, 0.15, 0.0, 0.0, 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.Energy(context.Background(), h, a, params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationLoweringCacheOff(b *testing.B) {
	stack, _ := benchStack(b)
	stack.Client.CacheEnabled = false
	k := experiments.BellKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stack.Client.Compile(k, "bench-sc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLoweringCacheOn(b *testing.B) {
	stack, _ := benchStack(b)
	stack.Client.CacheEnabled = true
	k := experiments.BellKernel()
	if _, _, err := stack.Client.Compile(k, "bench-sc"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stack.Client.Compile(k, "bench-sc"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdapterParseCacheOff(b *testing.B) {
	stack, dev := benchStack(b)
	adapter := &client.InterpretedAdapter{Client: stack.Client, Target: "bench-sc"}
	program := experiments.InterpretedPulseProgram(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapter.ParseProgram(program); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdapterParseCacheOn(b *testing.B) {
	stack, dev := benchStack(b)
	adapter := &client.InterpretedAdapter{Client: stack.Client, Target: "bench-sc", ParseCacheEnabled: true}
	program := experiments.InterpretedPulseProgram(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adapter.ParseProgram(program); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPropagatorEigen(b *testing.B) {
	h := linalg.PauliX().Scale(complex(math.Pi*40e6, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.ExpI(h, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPropagatorTaylor(b *testing.B) {
	h := linalg.PauliX().Scale(complex(math.Pi*40e6, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = linalg.ExpMTaylor(h.Scale(complex(0, -1e-9)))
	}
}

func BenchmarkAblationScheduleResolve(b *testing.B) {
	s := pulse.NewSchedule()
	for q := 0; q < 4; q++ {
		if err := s.AddPort(&pulse.Port{
			ID: portName(q), Kind: pulse.PortDrive, Sites: []int{q},
			SampleRateHz: 1e9, MaxAmplitude: 1,
		}); err != nil {
			b.Fatal(err)
		}
		if err := s.AddFrame(pulse.NewFrame(frameName(q), 5e9)); err != nil {
			b.Fatal(err)
		}
	}
	w, err := waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}.Materialize("w", 32)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := i % 4
		if err := s.Append(&pulse.Play{Port: portName(q), Frame: frameName(q), Waveform: w}); err != nil {
			b.Fatal(err)
		}
		if i%17 == 0 {
			if err := s.Append(&pulse.Barrier{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Resolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch submission (context-aware execution API) ---

// batchStack is benchStack plus a realistic per-job control-electronics
// overhead (arming, waveform upload, readout transfer): while the device
// holds one job, the host is free to JIT-compile the next — the window
// batch submission exploits and sequential Run calls waste. Submission
// hosts are multi-core; ensure at least two scheduler threads so timer
// wake-ups are not gated on Go's preemption granularity when the bench
// runs on a single-CPU machine (both variants get the same setting).
func batchStack(b *testing.B) *mqsspulse.Stack {
	b.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	stack, dev := benchStack(b)
	dev.SetJobOverhead(15 * time.Millisecond)
	return stack
}

// batchSweep builds n structurally distinct compile-heavy kernels (long
// virtual-Z programs) so every one pays its own JIT compile.
func batchSweep(b *testing.B, n int) []*qpi.Circuit {
	b.Helper()
	kernels := make([]*qpi.Circuit, n)
	for i := range kernels {
		k := qpi.NewCircuit(fmt.Sprintf("sweep-%03d", i), 1, 1)
		for j := 0; j < 16000; j++ {
			k.RZ(0, 0.01*float64(i)+0.001*float64(j))
		}
		k.SX(0).Measure(0, 0)
		if err := k.End(); err != nil {
			b.Fatal(err)
		}
		kernels[i] = k
	}
	return kernels
}

// BenchmarkBatchSequential32 runs 32 circuits through sequential RunCtx
// calls: each job compiles, queues, and executes before the next starts,
// so compilation and device occupancy never overlap.
func BenchmarkBatchSequential32(b *testing.B) {
	stack := batchStack(b)
	kernels := batchSweep(b, 32)
	opts := mqsspulse.SubmitOptions{Shots: 16, BypassCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			if _, err := stack.Client.RunCtx(context.Background(), k, "bench-sc", opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBatchRunBatch32 submits the same 32 circuits through RunBatch:
// compilation overlaps with device occupancy and the queue never drains.
func BenchmarkBatchRunBatch32(b *testing.B) {
	stack := batchStack(b)
	kernels := batchSweep(b, 32)
	opts := mqsspulse.SubmitOptions{Shots: 16, BypassCache: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := stack.Client.RunBatch(context.Background(), kernels, "bench-sc", opts)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range results {
			if r.Err != nil {
				b.Fatalf("item %d: %v", j, r.Err)
			}
		}
	}
}

// --- Fleet scheduling (pool placement across interchangeable devices) ---

// fleetBenchStack builds n identical simulators with a per-job electronics
// overhead, registered as pool "bench-pool". The overhead dominates the
// workload, so wall-clock time measures placement quality, not simulation
// speed.
func fleetBenchStack(b *testing.B, n int) *mqsspulse.Stack {
	b.Helper()
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	devs := make([]mqsspulse.Device, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		dev, err := devices.New(tinyFleetConfig(fmt.Sprintf("bench-fleet-%d", i), int64(11+i)))
		if err != nil {
			b.Fatal(err)
		}
		dev.SetJobOverhead(4 * time.Millisecond)
		devs[i], names[i] = dev, dev.Name()
	}
	stack, err := mqsspulse.NewStack(devs...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stack.Close)
	if err := stack.Client.QRM().RegisterPool("bench-pool", names...); err != nil {
		b.Fatal(err)
	}
	return stack
}

// fleetBatch256 dispatches a 256-job batch at the pool and waits for all of
// it; the ISSUE acceptance comparison is Pool4 < 0.5× Pool1.
func fleetBatch256(b *testing.B, n int) {
	stack := fleetBenchStack(b, n)
	k := qpi.NewCircuit("fleet-bench", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		b.Fatal(err)
	}
	kernels := make([]*qpi.Circuit, 256)
	for i := range kernels {
		kernels[i] = k
	}
	opts := mqsspulse.SubmitOptions{Shots: 4, Pool: "bench-pool"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := stack.Client.RunBatch(context.Background(), kernels, "", opts)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range results {
			if r.Err != nil {
				b.Fatalf("job %d: %v", j, r.Err)
			}
		}
	}
}

// BenchmarkFleetBatch256Pool1 is the single-device baseline: 256 jobs
// serialize behind one QPU's dispatch slot.
func BenchmarkFleetBatch256Pool1(b *testing.B) { fleetBatch256(b, 1) }

// BenchmarkFleetBatch256Pool4 spreads the same 256-job batch over a
// four-simulator pool via least-loaded placement and work stealing.
func BenchmarkFleetBatch256Pool4(b *testing.B) { fleetBatch256(b, 4) }

// --- Pulse-integration hot loop (ISSUE 5 tentpole) ---

func benchEvolve(b *testing.B, env waveform.Envelope, samples int, opts simq.ExecOptions) {
	b.Helper()
	// The 2-transmon (d=3) bench system (drives + ZZ coupler) is the
	// executor workload every calibration routine, readout train, and VQE
	// iteration bottlenecks on; the rig is shared with EXP-P1 so table and
	// benches always measure the same system.
	ex, sp, err := experiments.EvolveBenchRig(env, samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts.Shots = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(sp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolveDrivenGaussianFast is the headline fast-path number: a
// 1024-sample Gaussian on every channel, advanced matrix-free (no
// constant stretches to cache). Steady-state allocations are zero; the
// reported allocs/op are the fixed per-run setup, independent of the
// sample count.
func BenchmarkEvolveDrivenGaussianFast(b *testing.B) {
	benchEvolve(b, waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 1024, simq.ExecOptions{})
}

// BenchmarkEvolveDrivenGaussianExact is the before picture: one dense
// Hamiltonian assembly plus a full Jacobi eigendecomposition per sample.
func BenchmarkEvolveDrivenGaussianExact(b *testing.B) {
	benchEvolve(b, waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 1024,
		simq.ExecOptions{Integrator: simq.IntegratorExact})
}

// BenchmarkEvolveDrivenSquareFast exercises the propagator cache: a
// constant envelope is one stretch, exponentiated exactly once.
func BenchmarkEvolveDrivenSquareFast(b *testing.B) {
	benchEvolve(b, waveform.Constant{Amplitude: 0.5}, 1024, simq.ExecOptions{})
}

// BenchmarkEvolveDrivenSquareExact is the same workload through the
// per-sample reference integrator.
func BenchmarkEvolveDrivenSquareExact(b *testing.B) {
	benchEvolve(b, waveform.Constant{Amplitude: 0.5}, 1024,
		simq.ExecOptions{Integrator: simq.IntegratorExact})
}

// benchEvolveDensity runs the decoherent (density-engine) variant.
func benchEvolveDensity(b *testing.B, integ simq.Integrator) {
	b.Helper()
	dims := []int{3, 3}
	collapses := append(
		simq.RelaxationCollapses(dims, 0, 30e-6, 20e-6),
		simq.RelaxationCollapses(dims, 1, 25e-6, 18e-6)...)
	ex, sp, err := experiments.EvolveBenchRig(
		waveform.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}, 256, collapses)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(sp, simq.ExecOptions{Shots: 1, Integrator: integ}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolveDensityFast: density engine, matrix-free split-step
// unitary conjugation.
func BenchmarkEvolveDensityFast(b *testing.B) { benchEvolveDensity(b, simq.IntegratorAuto) }

// BenchmarkEvolveDensityExact: density engine, eigendecomposition per
// sample.
func BenchmarkEvolveDensityExact(b *testing.B) { benchEvolveDensity(b, simq.IntegratorExact) }

// --- Open-system shots ---

// BenchmarkShotsSerial runs the shared ShotBenchRig job (2-transmon d=3
// open system, square pulses, idle gap, captures on both sites) at 256
// shots under default options — one density evolution with a per-tick
// dissipator, then 256 sequential readout draws — and reports throughput
// in shots/s alongside ns/op.
func BenchmarkShotsSerial(b *testing.B) {
	ex, sp, err := experiments.ShotBenchRig()
	if err != nil {
		b.Fatal(err)
	}
	const shots = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(sp, simq.ExecOptions{Shots: shots}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(shots*float64(b.N)/secs, "shots/s")
	}
}

// --- EXP-S1: deferred binding (parametric template sweep) ---

// BenchmarkSweepBound1024 produces a 1024-point Rabi sweep's payloads from
// one compiled parametric template: the gate→pulse lowering is paid once
// outside the loop and each point is a bind — pure arithmetic on the
// lowered artifact. The deferred-binding contract requires this to beat
// BenchmarkSweepRecompile1024 by ≥5×.
func BenchmarkSweepBound1024(b *testing.B) {
	bound, _, err := experiments.SweepBenchRig(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bound(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepRecompile1024 is the per-point-compilation baseline: every
// sweep point rebuilds a concrete kernel and runs the full QPI → MLIR →
// passes → QIR pipeline, the way pre-template calibration loops did.
func BenchmarkSweepRecompile1024(b *testing.B) {
	_, recompile, err := experiments.SweepBenchRig(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recompile(); err != nil {
			b.Fatal(err)
		}
	}
}

func portName(q int) string  { return "p" + string(rune('0'+q)) }
func frameName(q int) string { return "f" + string(rune('0'+q)) }
