package mqsspulse_test

import (
	"context"
	"math"
	"strings"
	"testing"

	mqsspulse "mqsspulse"
)

func TestFacadeStackLifecycle(t *testing.T) {
	sc, err := mqsspulse.NewSuperconductingDevice("fac-sc", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ion, err := mqsspulse.NewTrappedIonDevice("fac-ion", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(sc, ion)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	for _, name := range []string{"fac-sc", "fac-ion"} {
		if _, err := stack.Session.Device(name); err != nil {
			t.Fatalf("device %s: %v", name, err)
		}
	}
}

func TestFacadeCircuitExecution(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("fac-run", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	k := mqsspulse.NewCircuit("x", 1, 1).X(0).Measure(0, 0)
	if err := k.End(); err != nil {
		t.Fatal(err)
	}
	res, err := stack.Client.RunCtx(context.Background(), k, "fac-run", mqsspulse.SubmitOptions{Shots: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability(1) < 0.95 {
		t.Fatalf("P(1) = %g", res.Probability(1))
	}
	// The adapter path.
	backend := &mqsspulse.NativeAdapter{Client: stack.Client, Target: "fac-run"}
	res2, err := mqsspulse.Run(context.Background(), backend, k, mqsspulse.WithShots(500))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Shots != 500 {
		t.Fatalf("shots = %d", res2.Shots)
	}
}

func TestFacadeCompileArtifacts(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("fac-compile", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	k := mqsspulse.NewCircuit("bell", 2, 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	_ = k.End()
	res, err := mqsspulse.Compile(k, dev)
	if err != nil {
		t.Fatal(err)
	}
	// MLIR text parses back through the facade.
	m, err := mqsspulse.ParseMLIR(res.MLIR.Print())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sequences) != 1 {
		t.Fatal("MLIR roundtrip lost the sequence")
	}
	// QIR payload parses back through the facade.
	q, err := mqsspulse.ParseQIR(string(res.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if !q.UsesPulse() {
		t.Fatal("compiled Bell should be pulse-profile")
	}
	// And the MLIR path compiles too.
	res2, err := mqsspulse.CompileMLIR(res.MLIR.Print(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res2.Payload), "qir_profiles") {
		t.Fatal("MLIR-path payload missing profile attribute")
	}
}

func TestFacadeWaveformEnvelopes(t *testing.T) {
	for _, env := range []mqsspulse.Envelope{
		mqsspulse.Gaussian{Amplitude: 0.5, SigmaFrac: 0.2},
		mqsspulse.DRAG{Amplitude: 0.5, SigmaFrac: 0.2, Beta: 0.5},
		mqsspulse.GaussianSquare{Amplitude: 0.5, RiseFrac: 0.1},
		mqsspulse.Constant{Amplitude: 0.5},
	} {
		w, err := env.Materialize("w", 64)
		if err != nil {
			t.Fatalf("%T: %v", env, err)
		}
		if w.Len() != 64 {
			t.Fatalf("%T: len %d", env, w.Len())
		}
	}
}

func TestFacadeCalibrationRoundtrip(t *testing.T) {
	dev, err := mqsspulse.NewSuperconductingDevice("fac-cal", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := mqsspulse.NewStack(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	dev.SetCalibratedFrequency(0, dev.TrueFrequency(0)+250e3)
	rr, err := mqsspulse.RamseyCalibrate(context.Background(), stack.Client, dev, 0, 1e6, 16, 600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr.MeasuredOffsetHz-250e3) > 40e3 {
		t.Fatalf("offset %g", rr.MeasuredOffsetHz)
	}
	if _, err := mqsspulse.RamseyErrorBenchmark(context.Background(), stack.Client, dev, 0, 2e-6, 400); err != nil {
		t.Fatal(err)
	}
	if _, err := mqsspulse.PulseTrainBenchmark(context.Background(), stack.Client, dev, 0, 5, 400); err != nil {
		t.Fatal(err)
	}
	pol, err := mqsspulse.CalibrationPolicyFor(dev)
	if err != nil {
		t.Fatal(err)
	}
	sched := mqsspulse.NewCalibrationScheduler(stack.Client, dev, pol)
	if sched == nil {
		t.Fatal("nil scheduler")
	}
}

func TestFacadeVQEPieces(t *testing.T) {
	h := mqsspulse.H2Hamiltonian()
	g, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(g+1.8573) <= 1e-3) {
		t.Fatalf("ground = %g", g)
	}
	dev, err := mqsspulse.NewSuperconductingDevice("fac-vqe", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mqsspulse.NewPulseAnsatz(dev, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGrape(t *testing.T) {
	prob := &mqsspulse.TransmonXProblem{Slots: 24, Dt: 1e-9, AnharmHz: -220e6, RabiHz: 40e6}
	target, proj := mqsspulse.TargetX()
	res, err := mqsspulse.Grape(prob.ModelSystem(), target, proj, prob.GaussianSeed(),
		mqsspulse.GrapeOptions{Iters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.99 {
		t.Fatalf("fidelity %g", res.Fidelity)
	}
}
