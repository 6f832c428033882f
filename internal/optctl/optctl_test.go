package optctl

import (
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/testutil"
)

func twoLevelSystem(slots int) *ControlSystem {
	// Resonant qubit: controls are π·Rabi·X and π·Rabi·Y with Rabi=10 MHz,
	// dt = 1 ns per slot.
	rabi := 10e6
	return &ControlSystem{
		Drift: linalg.NewMatrix(2, 2),
		Controls: []*linalg.Matrix{
			linalg.PauliX().Scale(complex(math.Pi*rabi, 0)),
			linalg.PauliY().Scale(complex(math.Pi*rabi, 0)),
		},
		Dt:     1e-9,
		Slots:  slots,
		MaxAmp: 1.0,
	}
}

func TestControlSystemValidate(t *testing.T) {
	good := twoLevelSystem(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := twoLevelSystem(10)
	bad.Controls = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no controls accepted")
	}
	bad2 := twoLevelSystem(10)
	bad2.Dt = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero dt accepted")
	}
	bad3 := twoLevelSystem(10)
	nh := linalg.NewMatrix(2, 2)
	nh.Set(0, 1, 1)
	bad3.Controls = []*linalg.Matrix{nh}
	if err := bad3.Validate(); err == nil {
		t.Fatal("non-Hermitian control accepted")
	}
	bad4 := twoLevelSystem(10)
	bad4.Drift = linalg.NewMatrix(3, 3)
	if err := bad4.Validate(); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestPropagateConstantPulseIsRabi(t *testing.T) {
	// Constant full amplitude on X for 50 ns at 10 MHz = π rotation.
	cs := twoLevelSystem(50)
	p := NewPulse(cs)
	for k := range p.Amps {
		p.Amps[k][0] = 1.0
	}
	u, err := cs.Propagate(p)
	if err != nil {
		t.Fatal(err)
	}
	if f := GateFidelity(linalg.PauliX(), u, nil); !(math.Abs(f-1) <= 1e-9) {
		t.Fatalf("constant π pulse fidelity %g", f)
	}
}

func TestPulseFlattenRoundtrip(t *testing.T) {
	cs := twoLevelSystem(4)
	p := NewPulse(cs)
	p.Amps[1][0] = 0.5
	p.Amps[3][1] = -0.25
	x := p.Flatten()
	q := NewPulse(cs)
	q.SetFlat(x)
	for k := range p.Amps {
		for j := range p.Amps[k] {
			if p.Amps[k][j] != q.Amps[k][j] {
				t.Fatal("flatten/setflat roundtrip broken")
			}
		}
	}
}

func TestGrapeSynthesizesHadamard(t *testing.T) {
	// 100 ns at 10 MHz Rabi: enough rotation budget (2π rad) for the
	// ~3π/2 of X/Y rotation a Hadamard needs.
	cs := twoLevelSystem(100)
	init := NewPulse(cs)
	for k := range init.Amps {
		init.Amps[k][0] = 0.3
		init.Amps[k][1] = 0.05 // break the X-rotation symmetry
	}
	res, err := GrapeUnitary(cs, testutil.Hadamard(), nil, init, GrapeOptions{Iters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.999 {
		t.Fatalf("GRAPE H fidelity %g after %d iters", res.Fidelity, res.Iterations)
	}
	// Trace must be non-decreasing (accepted steps only).
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1]-1e-12 {
			t.Fatal("fidelity trace decreased")
		}
	}
}

func TestGrapeRespectsAmplitudeBound(t *testing.T) {
	cs := twoLevelSystem(30)
	cs.MaxAmp = 0.4
	init := NewPulse(cs)
	for k := range init.Amps {
		init.Amps[k][0] = 0.2
	}
	res, err := GrapeUnitary(cs, linalg.PauliX(), nil, init, GrapeOptions{Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Pulse.Amps {
		for j := range res.Pulse.Amps[k] {
			if math.Abs(res.Pulse.Amps[k][j]) > 0.4+1e-12 {
				t.Fatalf("amplitude bound violated: %g", res.Pulse.Amps[k][j])
			}
		}
	}
}

func TestGrapeTransmonXSuppressesLeakage(t *testing.T) {
	prob := &TransmonXProblem{
		Slots: 40, Dt: 1e-9, AnharmHz: -220e6, RabiHz: 40e6,
	}
	target, proj := TargetX()
	res, err := GrapeUnitary(prob.ModelSystem(), target, proj, prob.GaussianSeed(),
		GrapeOptions{Iters: 300, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity < 0.999 {
		t.Fatalf("transmon X fidelity %g", res.Fidelity)
	}
	// Leakage check: the optimized propagator keeps |2⟩ population small
	// for computational inputs.
	u, err := prob.ModelSystem().Propagate(res.Pulse)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]complex128{{1, 0, 0}, {0, 1, 0}} {
		out := testutil.MulVec(u, in)
		leak := real(out[2])*real(out[2]) + imag(out[2])*imag(out[2])
		if leak > 5e-3 {
			t.Fatalf("leakage %g too high", leak)
		}
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 10*(x[1]+2)*(x[1]+2)
	}
	x, fv, evals := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if !(math.Abs(x[0]-1) <= 1e-4) || !(math.Abs(x[1]+2) <= 1e-4) {
		t.Fatalf("NM solution %v after %d evals", x, evals)
	}
	if !(fv <= 1e-7) {
		t.Fatalf("NM value %g", fv)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _, _ := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxEvals: 4000, InitStep: 0.5})
	if math.Abs(x[0]-1) > 0.05 || math.Abs(x[1]-1) > 0.05 {
		t.Fatalf("Rosenbrock solution %v", x)
	}
}

func TestSPSANoisyQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(x []float64) float64 {
		v := 0.0
		for _, xi := range x {
			v += (xi - 0.3) * (xi - 0.3)
		}
		return v + 0.01*rng.NormFloat64()
	}
	x, _, evals := SPSA(f, make([]float64, 6), SPSAOptions{Iters: 500, A0: 0.1, C0: 0.05, Seed: 2})
	for i, xi := range x {
		if math.Abs(xi-0.3) > 0.1 {
			t.Fatalf("SPSA x[%d]=%g after %d evals", i, xi, evals)
		}
	}
}

func TestSPSAClip(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] } // pushes x up forever
	x, _, _ := SPSA(f, []float64{0}, SPSAOptions{Iters: 100, A0: 1, C0: 0.1, Seed: 3, Clip: 0.5})
	if x[0] > 0.5+1e-12 {
		t.Fatalf("clip violated: %g", x[0])
	}
}

func TestSPSAProbesStayInBox(t *testing.T) {
	// The objective drives x to the bound, where every probe x ± c·δ has one
	// side outside the box unless SPSA clips it.
	const clip = 0.5
	var seen int
	f := func(x []float64) float64 {
		seen++
		for i, xi := range x {
			if math.Abs(xi) > clip {
				t.Fatalf("evaluation %d: x[%d] = %g outside ±%g", seen, i, xi, clip)
			}
		}
		return -x[0] + x[1]
	}
	_, _, evals := SPSA(f, []float64{0.3, -0.2}, SPSAOptions{Iters: 100, A0: 1, C0: 0.1, Seed: 3, Clip: clip})
	if seen != evals || evals != 301 {
		t.Fatalf("objective saw %d points, SPSA reports %d, want 1 + 3·100", seen, evals)
	}
}

// Propagate computes the total propagator of a pulse on the system.
func (cs *ControlSystem) Propagate(p *Pulse) (*linalg.Matrix, error) {
	us, err := cs.slotPropagators(p)
	if err != nil {
		return nil, err
	}
	return product(cs.Drift.Rows, us), nil
}

// SetFlat writes a flat parameter vector back into the pulse: Flatten's
// inverse, which pins its layout.
func (p *Pulse) SetFlat(x []float64) {
	i := 0
	for k := range p.Amps {
		for j := range p.Amps[k] {
			p.Amps[k][j] = x[i]
			i++
		}
	}
}
