package vqe

import (
	"context"
	"math"
	"testing"

	"mqsspulse/internal/devices"
	"mqsspulse/internal/linalg"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qrm"
)

// schedulerOver returns a QRM over one registered device: the path every
// VQE evaluation takes to it.
func schedulerOver(t *testing.T, dev qdmi.Device) *qrm.Scheduler {
	t.Helper()
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	s := qrm.New(drv.OpenSession())
	t.Cleanup(s.Close)
	return s
}

func TestH2MinimalGroundEnergy(t *testing.T) {
	h := H2Minimal()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// Literature value for this coefficient set.
	if math.Abs(g-(-1.8572)) > 1e-3 {
		t.Fatalf("H2 ground energy = %.10f", g)
	}
}

func TestHamiltonianValidate(t *testing.T) {
	bad := &Hamiltonian{Qubits: 2, Terms: []Term{{Coeff: 1, Ops: "XQ"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid op accepted")
	}
	bad2 := &Hamiltonian{Qubits: 2, Terms: []Term{{Coeff: 1, Ops: "X"}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := (&Hamiltonian{Qubits: 0}).Validate(); err == nil {
		t.Fatal("zero qubits accepted")
	}
}

func TestTFIMKnownEnergy(t *testing.T) {
	// Single qubit TFIM: H = -h·X, ground energy -h.
	h := TFIM(1, 1, 0.7)
	g, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g+0.7) > 1e-9 {
		t.Fatalf("TFIM(1) ground = %g", g)
	}
	// Two qubits, J=1, h=0: ground -J (from -J·ZZ).
	h2 := TFIM(2, 1, 0)
	g2, _ := h2.GroundEnergy()
	if math.Abs(g2+1) > 1e-9 {
		t.Fatalf("TFIM(2, h=0) ground = %g", g2)
	}
}

func TestGroupTerms(t *testing.T) {
	h := H2Minimal()
	groups, identity := h.GroupTerms()
	if math.Abs(identity-(-1.052373245772859)) > 1e-12 {
		t.Fatalf("identity offset %g", identity)
	}
	// ZI, IZ, ZZ share the ZZ basis; XX is separate → 2 groups.
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %+v", len(groups), groups)
	}
	nTerms := 0
	for _, g := range groups {
		nTerms += len(g.Terms)
		for _, term := range g.Terms {
			for q := 0; q < h.Qubits; q++ {
				if term.Ops[q] != 'I' && term.Ops[q] != g.Basis[q] {
					t.Fatalf("term %s in group %s", term.Ops, g.Basis)
				}
			}
		}
	}
	if nTerms != 4 {
		t.Fatalf("grouped %d terms, want 4", nTerms)
	}
}

func TestTermValue(t *testing.T) {
	zz := Term{Coeff: 1, Ops: "ZZ"}
	if TermValue(zz, 0b00) != 1 || TermValue(zz, 0b11) != 1 {
		t.Fatal("even parity should be +1")
	}
	if TermValue(zz, 0b01) != -1 || TermValue(zz, 0b10) != -1 {
		t.Fatal("odd parity should be -1")
	}
	zi := Term{Coeff: 1, Ops: "ZI"}
	if TermValue(zi, 0b10) != 1 || TermValue(zi, 0b01) != -1 {
		t.Fatal("ZI should only read bit 0")
	}
}

func TestGroupEnergy(t *testing.T) {
	g := MeasurementGroup{Basis: "ZZ", Terms: []Term{{Coeff: 2.0, Ops: "ZZ"}}}
	counts := map[uint64]int{0b00: 750, 0b01: 250}
	e := GroupEnergy(g, counts, 1000)
	// ⟨ZZ⟩ = (750 - 250)/1000 = 0.5 → energy 1.0
	if math.Abs(e-1.0) > 1e-12 {
		t.Fatalf("group energy %g", e)
	}
	if GroupEnergy(g, counts, 0) != 0 {
		t.Fatal("zero shots should return 0")
	}
}

func TestExpectationExactMatchesMatrix(t *testing.T) {
	h := H2Minimal()
	// |10⟩ (qubit0=1, qubit1=0): big-endian index 0b10 = 2.
	amp := make([]complex128, 4)
	amp[2] = 1
	e := h.ExpectationExact(amp)
	m := h.Matrix()
	want := real(m.At(2, 2))
	if math.Abs(e-want) > 1e-12 {
		t.Fatalf("expectation %g vs diagonal %g", e, want)
	}
	if math.Abs(e-(-1.8370)) > 1e-3 {
		t.Fatalf("HF energy %g, want ≈ -1.8370", e)
	}
	// The Hartree-Fock state should be close to but above ground.
	if err := h.EnergyUpperBoundCheck(e, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestGateAnsatzModuleShape(t *testing.T) {
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	if a.NumParams() != 4 {
		t.Fatalf("params = %d", a.NumParams())
	}
	mod, err := a.BuildModule([]float64{0.1, 0.2, 0.3, 0.4}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
	if mod.UsesPulse() {
		t.Fatal("gate ansatz should not use pulse intrinsics")
	}
	// 4 ry + 1 cz + 2 mz = 7 calls in the Z basis.
	if len(mod.Body) != 7 {
		t.Fatalf("body has %d calls", len(mod.Body))
	}
	modX, _ := a.BuildModule([]float64{0.1, 0.2, 0.3, 0.4}, "XX")
	if len(modX.Body) != 9 { // + 2 H rotations
		t.Fatalf("X-basis body has %d calls", len(modX.Body))
	}
	modY, _ := a.BuildModule([]float64{0.1, 0.2, 0.3, 0.4}, "YY")
	if len(modY.Body) != 11 { // + 2 (rz, h) pairs
		t.Fatalf("Y-basis body has %d calls", len(modY.Body))
	}
	if _, err := a.BuildModule([]float64{0.1}, "ZZ"); err == nil {
		t.Fatal("wrong param count accepted")
	}
	if _, err := a.BuildModule([]float64{0.1, 0.2, 0.3, 0.4}, "Z"); err == nil {
		t.Fatal("wrong basis length accepted")
	}
}

func TestPulseAnsatzModuleShape(t *testing.T) {
	dev, err := devices.Superconducting("sc-vqe", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPulseAnsatz(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := a.BuildModule([]float64{0.5, -0.3, 0.2, -0.1, 0.4}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, mod.Emit())
	}
	if !mod.UsesPulse() {
		t.Fatal("pulse ansatz should use pulse intrinsics")
	}
	if len(mod.Waveforms) != 3 {
		t.Fatalf("waveform count %d, want 3", len(mod.Waveforms))
	}
	// Zero amplitudes omit pulses.
	mod0, err := a.BuildModule([]float64{0, 0, 0.1, 0.1, 0}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod0.Waveforms) != 0 {
		t.Fatal("zero-amplitude drives should be omitted")
	}
	// Out-of-range amplitudes are clamped, not rejected.
	if _, err := a.BuildModule([]float64{7, -9, 0, 0, 3}, "ZZ"); err != nil {
		t.Fatalf("clamping failed: %v", err)
	}
}

func TestPulseAnsatzRequiresCoupler(t *testing.T) {
	dev, err := devices.Superconducting("sc-single", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPulseAnsatz(dev, 2); err == nil {
		t.Fatal("single-qubit device accepted")
	}
	if _, err := NewPulseAnsatz(dev, 3); err == nil {
		t.Fatal("3 qubits accepted")
	}
}

func TestEstimatorEnergyHartreeFock(t *testing.T) {
	// X on qubit 0 prepares |10⟩, the Hartree-Fock state of the parity-
	// mapped H2; its energy should be ≈ -1.837 (above ground -1.857).
	dev, err := devices.Superconducting("sc-hf", 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := H2Minimal()
	// Ansatz: RY(π) on qubit 0 ≈ X up to phase.
	a := &GateAnsatz{Qubits: 2, Layers: 0}
	est := &Estimator{QRM: schedulerOver(t, dev), Device: dev.Name(), Shots: 3000}
	e, dur, err := est.Energy(context.Background(), h, a, []float64{math.Pi, 0})
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("no schedule duration recorded")
	}
	// Exact HF energy for this Hamiltonian:
	amp := make([]complex128, 4)
	amp[2] = 1 // |10⟩
	want := h.ExpectationExact(amp)
	if math.Abs(e-want) > 0.08 {
		t.Fatalf("HF energy %g, want %g (readout-error limited)", e, want)
	}
}

func TestVQEGateAnsatzConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full VQE loop in -short mode")
	}
	dev, err := devices.Superconducting("sc-vqe-run", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := H2Minimal()
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	res, err := Run(context.Background(), schedulerOver(t, dev), dev.Name(), h, a, []float64{math.Pi - 0.1, 0.1, -0.1, 0.1}, Options{
		Shots: 800, MaxEvals: 80, InitStep: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := h.GroundEnergy()
	// Shot noise + readout error + decoherence allow ~0.15 Ha slack.
	if res.Energy > g+0.2 {
		t.Fatalf("VQE energy %g too far above ground %g", res.Energy, g)
	}
	if res.ScheduleSeconds <= 0 {
		t.Fatal("schedule duration not recorded")
	}
	// Trace is monotone non-increasing (best-so-far).
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1]+1e-12 {
			t.Fatal("best-so-far trace increased")
		}
	}
}

func TestVQEValidation(t *testing.T) {
	dev, _ := devices.Superconducting("sc-val", 2, 8)
	h := H2Minimal()
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	if _, err := Run(context.Background(), schedulerOver(t, dev), dev.Name(), h, a, []float64{0.1}, Options{}); err == nil {
		t.Fatal("wrong x0 length accepted")
	}
	badH := &Hamiltonian{Qubits: 2, Terms: []Term{{Coeff: 1, Ops: "Q"}}}
	if _, err := Run(context.Background(), schedulerOver(t, dev), dev.Name(), badH, a, make([]float64, 4), Options{}); err == nil {
		t.Fatal("invalid hamiltonian accepted")
	}
}

func TestPauliMatrixHermitian(t *testing.T) {
	h := H2Minimal().Matrix()
	if !h.IsHermitian(1e-12) {
		t.Fatal("H2 matrix not Hermitian")
	}
	if h.Rows != 4 {
		t.Fatalf("dim %d", h.Rows)
	}
	tf := TFIM(3, 1, 0.5).Matrix()
	if !tf.IsHermitian(1e-12) || tf.Rows != 8 {
		t.Fatal("TFIM matrix wrong")
	}
	_ = linalg.Identity(2) // keep linalg imported for clarity of intent
}

func TestVQETFIMGateAnsatz(t *testing.T) {
	if testing.Short() {
		t.Skip("TFIM VQE loop in -short mode")
	}
	// 2-site TFIM at J=1, h=0.5: ground energy -(sqrt(J^2+h^2)+...) — use
	// the exact diagonalization as reference.
	dev, err := devices.Superconducting("sc-tfim", 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	h := TFIM(2, 1, 0.5)
	exact, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	res, err := Run(context.Background(), schedulerOver(t, dev), dev.Name(), h, a, []float64{0.3, 0.3, 0.1, 0.1}, Options{
		Shots: 700, MaxEvals: 70, InitStep: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy > exact+0.25 {
		t.Fatalf("TFIM VQE energy %g too far above exact %g", res.Energy, exact)
	}
}

func TestTFIMGroupCount(t *testing.T) {
	h := TFIM(3, 1, 0.5)
	groups, identity := h.GroupTerms()
	if identity != 0 {
		t.Fatalf("TFIM has no identity term, got %g", identity)
	}
	// ZZ terms share one group; X terms share another.
	if len(groups) != 2 {
		t.Fatalf("groups = %d: %+v", len(groups), groups)
	}
}
