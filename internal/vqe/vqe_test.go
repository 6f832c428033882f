package vqe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mqsspulse/internal/client"
	"mqsspulse/internal/devices"
	"mqsspulse/internal/linalg"
	"mqsspulse/internal/ptemplate"
	"mqsspulse/internal/qdmi"
	"mqsspulse/internal/qir"
	"mqsspulse/internal/qpi"
	"mqsspulse/internal/testutil"
)

// clientOver returns a client over one registered device: the path every
// VQE evaluation takes to it.
func clientOver(t *testing.T, dev qdmi.Device) *client.Client {
	t.Helper()
	drv := qdmi.NewDriver()
	if err := drv.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	cl := client.New(drv.OpenSession())
	t.Cleanup(cl.Close)
	return cl
}

// gateCount counts the kernel's gate ops named g, and with a symbolic
// angle among them.
func gateCount(k *qpi.Circuit, g string) (n, symbolic int) {
	for _, op := range k.Ops() {
		if op.Kind == qpi.OpGate && op.Gate == g {
			n++
			if op.AngleExpr != nil {
				symbolic++
			}
		}
	}
	return n, symbolic
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
	if !(math.Abs(g-(-1.8572)) <= 1e-3) {
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
	h := tfim(1, 1, 0.7)
	g, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(g+0.7) <= 1e-9) {
		t.Fatalf("tfim(1) ground = %g", g)
	}
	// Two qubits, J=1, h=0: ground -J (from -J·ZZ).
	h2 := tfim(2, 1, 0)
	g2, _ := h2.GroundEnergy()
	if !(math.Abs(g2+1) <= 1e-9) {
		t.Fatalf("tfim(2, h=0) ground = %g", g2)
	}
}

func TestGroupTerms(t *testing.T) {
	h := H2Minimal()
	groups, identity := h.GroupTerms()
	if !(math.Abs(identity-(-1.052373245772859)) <= 1e-12) {
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
	if !(math.Abs(e-1.0) <= 1e-12) {
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
	if !(math.Abs(e-want) <= 1e-12) {
		t.Fatalf("expectation %g vs diagonal %g", e, want)
	}
	if !(math.Abs(e-(-1.8370)) <= 1e-3) {
		t.Fatalf("HF energy %g, want ≈ -1.8370", e)
	}
	// The Hartree-Fock state should be close to but above ground.
	if err := h.EnergyUpperBoundCheck(e, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestGateAnsatzKernel(t *testing.T) {
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	if a.NumParams() != 4 {
		t.Fatalf("params = %d", a.NumParams())
	}
	// An angle past π comes back as a point inside the declared period.
	params := []float64{0.1, -0.2, 0.3, 7.5}
	tpl, point, err := a.Kernel(params, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	k := tpl.Circuit()
	gateLevel := countKind(k, qpi.OpGate)+countKind(k, qpi.OpMeasure) == len(k.Ops())
	if !k.Finished() || !gateLevel || len(tpl.Params()) != a.NumParams() {
		t.Fatalf("kernel finished %v, gate-level %v, %d params", k.Finished(), gateLevel, len(tpl.Params()))
	}
	for _, p := range tpl.Params() {
		if p.Min != -math.Pi || p.Max != math.Pi {
			t.Fatalf("parameter %s declared over [%g, %g], want [−π, π]", p.Name, p.Min, p.Max)
		}
	}
	inSpace(t, tpl, point)
	// 4 ry + 1 cz + 2 measure = 7 ops in the Z basis, each ry its own slot.
	if len(k.Ops()) != 7 || countKind(k, qpi.OpMeasure) != 2 {
		t.Fatalf("Z-basis kernel has %d ops, %d measurements", len(k.Ops()), countKind(k, qpi.OpMeasure))
	}
	if ry, sym := gateCount(k, "ry"); ry != 4 || sym != 4 {
		t.Fatalf("%d ry, %d symbolic; want 4 symbolic", ry, sym)
	}
	want := []float64{0.1, -0.2, 0.3, 7.5 - 2*math.Pi}
	for i, at := range []int{0, 1, 3, 4} {
		e := k.Ops()[at].AngleExpr
		if v := point[e.Param]; e.Scale != 1 || e.Offset != 0 || !(math.Abs(v-want[i]) <= 1e-15) {
			t.Fatalf("param %d: ry slot %+v bound at %g, want %g", i, e, v, want[i])
		}
	}
	tX, _, _ := a.Kernel(params, "XX")
	if h, _ := gateCount(tX.Circuit(), "h"); len(tX.Circuit().Ops()) != 9 || h != 2 { // + 2 H rotations
		t.Fatalf("X-basis kernel has %d ops, %d h", len(tX.Circuit().Ops()), h)
	}
	tY, _, _ := a.Kernel(params, "YY")
	h, _ := gateCount(tY.Circuit(), "h")
	rz, _ := gateCount(tY.Circuit(), "rz")
	if len(tY.Circuit().Ops()) != 11 || h != 2 || rz != 2 { // + 2 (rz, h) pairs
		t.Fatalf("Y-basis kernel has %d ops, %d h, %d rz", len(tY.Circuit().Ops()), h, rz)
	}
	if _, _, err := a.Kernel([]float64{0.1}, "ZZ"); err == nil {
		t.Fatal("wrong param count accepted")
	}
	if _, _, err := a.Kernel(params, "Z"); err == nil {
		t.Fatal("wrong basis length accepted")
	}
}

func TestPulseAnsatzKernel(t *testing.T) {
	dev, err := devices.Superconducting("sc-vqe", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPulseAnsatz(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	tpl, point, err := a.Kernel([]float64{0.5, -0.3, 0.2, -0.1, 0.4}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	k := tpl.Circuit()
	if len(tpl.Params()) != a.NumParams() {
		t.Fatalf("template declares %v", tpl.Params())
	}
	if !k.Finished() {
		t.Fatal("pulse ansatz kernel should be finished")
	}
	if countKind(k, qpi.OpWaveformDef) != 3 || countKind(k, qpi.OpPlayWaveform) != 3 || countKind(k, qpi.OpBarrier) != 2 {
		t.Fatalf("%d waveforms, %d plays, %d barriers; want 3, 3, 2",
			countKind(k, qpi.OpWaveformDef), countKind(k, qpi.OpPlayWaveform), countKind(k, qpi.OpBarrier))
	}
	// The phases are RZ(−φ) slots, the frame's shift_phase(φ).
	if rz, sym := gateCount(k, "rz"); rz != 2 || sym != 2 {
		t.Fatalf("Z basis: %d rz, %d symbolic; want 2 symbolic", rz, sym)
	}
	inSpace(t, tpl, point)
	if point["phase0"] != 0.2 || point["amp1"] != -0.3 {
		t.Fatalf("in-range params moved: %v", point)
	}
	tX, _, _ := a.Kernel([]float64{0.5, -0.3, 0.2, -0.1, 0.4}, "XX")
	kX := tX.Circuit()
	if h, _ := gateCount(kX, "h"); h != 2 || len(kX.Ops()) != len(k.Ops())+2 {
		t.Fatalf("X basis: %d h in %d ops (Z basis %d)", h, len(kX.Ops()), len(k.Ops()))
	}
	tY, _, _ := a.Kernel([]float64{0.5, -0.3, 0.2, -0.1, 0.4}, "YY")
	kY := tY.Circuit()
	h, _ := gateCount(kY, "h")
	rz, sym := gateCount(kY, "rz")
	if h != 2 || rz != 4 || sym != 2 || len(kY.Ops()) != len(k.Ops())+4 {
		t.Fatalf("Y basis: %d h, %d rz (%d symbolic) in %d ops", h, rz, sym, len(kY.Ops()))
	}
	// Out-of-range amplitudes are clamped and phases reduced mod 2π into
	// the declared space: no point is a bad parameter.
	tpl, point, err = a.Kernel([]float64{7, -9, 4, -4, 3}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	inSpace(t, tpl, point)
	if point["amp0"] != 1 || point["amp1"] != -1 || point["amp_c"] != 1 ||
		!(math.Abs(point["phase0"]-(4-2*math.Pi)) <= 1e-15) || !(math.Abs(point["phase1"]-(2*math.Pi-4)) <= 1e-15) {
		t.Fatalf("folded point %v", point)
	}
	// At zero amplitude the three pulses are zeros, still played.
	tpl, point, err = a.Kernel([]float64{0, 0, 0.1, 0.1, 0}, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ptemplate.Lower(tpl, dev, dev.Name())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := prog.Bind(point)
	if err != nil {
		t.Fatal(err)
	}
	plays, zeros := 0, 0
	for _, c := range mod.Body {
		if c.Callee == qir.IntrPlay {
			plays++
			if c.Args[2].F == 0 {
				zeros++
			}
		}
	}
	if plays != 3 || zeros != 3 {
		t.Fatalf("zero amplitudes: %d plays, %d by a zero factor; want 3 and 3", plays, zeros)
	}
	if _, _, err := a.Kernel([]float64{0.1}, "ZZ"); err == nil {
		t.Fatal("wrong param count accepted")
	}
	for _, basis := range []string{"Z", "ZZZ", "ZQ"} {
		if _, _, err := a.Kernel(make([]float64, 5), basis); err == nil {
			t.Fatalf("basis %q accepted", basis)
		}
	}
}

// TestPulseAnsatzJobsAreClientJobs pins that a pulse-ansatz evaluation is a
// client job like any other: each basis lowers once and later evaluations
// bind, every job's stages land in the client's registry, and a
// recalibration between evaluations re-lowers instead of failing a job.
func TestPulseAnsatzJobsAreClientJobs(t *testing.T) {
	dev, err := devices.Superconducting("sc-vqe-client", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl := clientOver(t, dev)
	a, err := NewPulseAnsatz(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := H2Minimal() // two groups: XX and ZZ
	est := &Estimator{Client: cl, Device: dev.Name(), Shots: 200}
	ctx := context.Background()
	for _, x := range [][]float64{{0.9, 0.15, 0.2, -0.1, 0.1}, {-0.4, 0.6, 3.5, -2, 0.7}} {
		if _, _, err := est.Energy(ctx, h, a, x); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.CacheStats(); st.Misses != 2 || st.Binds != 2 || st.Hits != 0 {
		t.Fatalf("cache stats %+v, want 2 misses (one per basis) then 2 binds", st)
	}
	snap := cl.Telemetry()
	for _, stage := range []string{"compile", "queue-wait", "dispatch", "device-execute"} {
		if n := snap.Histograms["stage/"+stage].Count; n != 4 {
			t.Errorf("stage %s recorded %d times, want once per job (4)", stage, n)
		}
	}
	dev.SetCalibratedPiAmplitude(0, dev.CalibratedPiAmplitude(0)*1.01)
	if _, _, err := est.Energy(ctx, h, a, []float64{0.9, 0.15, 0.2, -0.1, 0.1}); err != nil {
		t.Fatalf("evaluation after a recalibration: %v", err)
	}
	if st := cl.CacheStats(); st.Invalidations < 1 || st.Misses != 4 {
		t.Fatalf("after recalibrating: %+v, want the bases re-lowered", st)
	}
}

// TestGateAnsatzJobsAreClientJobs pins that the gate ansatz is a template
// too: each measurement group lowers once, whatever its angles — negative,
// past π, a whole turn — and every later evaluation binds.
func TestGateAnsatzJobsAreClientJobs(t *testing.T) {
	dev, err := devices.Superconducting("sc-vqe-gate-client", 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl := clientOver(t, dev)
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	h := H2Minimal() // two groups: XX and ZZ
	est := &Estimator{Client: cl, Device: dev.Name(), Shots: 200}
	points := [][]float64{{0.3, -0.2, 0.1, 0.4}, {math.Pi + 0.5, -4, 2 * math.Pi, 7.5}, {-math.Pi, 0, 1, -1}}
	for _, x := range points {
		if _, _, err := est.Energy(context.Background(), h, a, x); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.CacheStats()
	if st.Misses != 2 || st.Entries != 2 || st.TemplateEntries != 2 || st.Binds != 2*int64(len(points)-1) || st.Hits != 0 {
		t.Fatalf("cache stats %+v, want 2 misses and 2 template entries (one per group), then %d binds",
			st, 2*(len(points)-1))
	}
}

// TestRunReturnsFirstEvaluationError pins that a run whose evaluations fail
// fails: the first error ends it, wrapped, instead of being scored as a
// penalty energy.
func TestRunReturnsFirstEvaluationError(t *testing.T) {
	dev, err := devices.Superconducting("sc-vqe-cancel", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl := clientOver(t, dev)
	pa, err := NewPulseAnsatz(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []Ansatz{&GateAnsatz{Qubits: 2, Layers: 1}, pa} {
		res, err := Run(ctx, cl, dev.Name(), H2Minimal(), a, make([]float64, a.NumParams()), Options{MaxEvals: 20})
		if !errors.Is(err, context.Canceled) || res != nil || !strings.Contains(err.Error(), "evaluation 1:") {
			t.Fatalf("%T: Run on a cancelled ctx = %+v, %v; want evaluation 1's context.Canceled", a, res, err)
		}
	}
	if st := cl.CacheStats(); st.Misses != 0 {
		t.Fatalf("a cancelled run compiled: %+v", st)
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
	est := &Estimator{Client: clientOver(t, dev), Device: dev.Name(), Shots: 3000}
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
	res, err := Run(context.Background(), clientOver(t, dev), dev.Name(), h, a, []float64{math.Pi - 0.1, 0.1, -0.1, 0.1}, Options{
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
	if _, err := Run(context.Background(), clientOver(t, dev), dev.Name(), h, a, []float64{0.1}, Options{}); err == nil {
		t.Fatal("wrong x0 length accepted")
	}
	badH := &Hamiltonian{Qubits: 2, Terms: []Term{{Coeff: 1, Ops: "Q"}}}
	if _, err := Run(context.Background(), clientOver(t, dev), dev.Name(), badH, a, make([]float64, 4), Options{}); err == nil {
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
	tf := tfim(3, 1, 0.5).Matrix()
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
	h := tfim(2, 1, 0.5)
	exact, err := h.GroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	a := &GateAnsatz{Qubits: 2, Layers: 1}
	res, err := Run(context.Background(), clientOver(t, dev), dev.Name(), h, a, []float64{0.3, 0.3, 0.1, 0.1}, Options{
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
	h := tfim(3, 1, 0.5)
	groups, identity := h.GroupTerms()
	if identity != 0 {
		t.Fatalf("TFIM has no identity term, got %g", identity)
	}
	// ZZ terms share one group; X terms share another.
	if len(groups) != 2 {
		t.Fatalf("groups = %d: %+v", len(groups), groups)
	}
}

// ExpectationExact computes ⟨ψ|H|ψ⟩ for a state vector (testing aid).
func (h *Hamiltonian) ExpectationExact(amp []complex128) float64 {
	m := h.Matrix()
	return real(linalg.Dot(amp, testutil.MulVec(m, amp)))
}

// EnergyUpperBoundCheck reports whether e is ≥ the exact ground energy
// (variational principle), within tol.
func (h *Hamiltonian) EnergyUpperBoundCheck(e, tol float64) error {
	g, err := h.GroundEnergy()
	if err != nil {
		return err
	}
	if e < g-tol {
		return fmt.Errorf("vqe: energy %g below ground truth %g", e, g)
	}
	return nil
}

// inSpace fails unless point binds each of tpl's parameters, and only those,
// inside its declared range: the check a sweep point meets at bind time.
func inSpace(t *testing.T, tpl *ptemplate.Template, point ptemplate.Bindings) {
	t.Helper()
	if len(point) != len(tpl.Params()) {
		t.Fatalf("point %v binds %d names, template declares %d", point, len(point), len(tpl.Params()))
	}
	for _, p := range tpl.Params() {
		if v, ok := point[p.Name]; !ok || !(v >= p.Min && v <= p.Max) {
			t.Fatalf("parameter %s = %v (bound %v) outside [%g, %g]", p.Name, v, ok, p.Min, p.Max)
		}
	}
}

// countKind returns the number of k's ops of the given kind.
func countKind(k *qpi.Circuit, kind qpi.OpKind) int {
	n := 0
	for _, op := range k.Ops() {
		if op.Kind == kind {
			n++
		}
	}
	return n
}

// tfim returns the transverse-field Ising chain H = -J Σ Z_i Z_{i+1} - h Σ X_i.
func tfim(n int, j, hx float64) *Hamiltonian {
	ham := &Hamiltonian{Qubits: n}
	for i := 0; i+1 < n; i++ {
		ops := []byte(strings.Repeat("I", n))
		ops[i], ops[i+1] = 'Z', 'Z'
		ham.Terms = append(ham.Terms, Term{Coeff: -j, Ops: string(ops)})
	}
	for i := 0; i < n; i++ {
		ops := []byte(strings.Repeat("I", n))
		ops[i] = 'X'
		ham.Terms = append(ham.Terms, Term{Coeff: -hx, Ops: string(ops)})
	}
	return ham
}
