package simq

import (
	"math"
	"math/rand"
	"testing"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/testutil"
)

func TestNewDensityGround(t *testing.T) {
	d := NewDensity([]int{2, 2})
	if d.Dim() != 4 {
		t.Fatalf("dim = %d", d.Dim())
	}
	if !(math.Abs(d.Trace()-1) <= 1e-12) {
		t.Fatal("trace != 1")
	}
	if !(math.Abs(d.Purity()-1) <= 1e-12) {
		t.Fatal("pure state should have purity 1")
	}
}

func TestDensityUnitaryConjugation(t *testing.T) {
	d := newDensity([]int{2})
	d.ApplyAt(linalg.PauliX(), 0)
	if p := d.PopulationOfLevel(0, 1); !(math.Abs(p-1) <= 1e-12) {
		t.Fatalf("P(1) = %g after X", p)
	}
	if err := d.CheckPhysical(1e-10); err != nil {
		t.Fatal(err)
	}
}

func TestT1Decay(t *testing.T) {
	// Prepare |1⟩, evolve under pure relaxation, expect exp(-t/T1).
	t1 := 20e-6
	dims := []int{2}
	d := newDensity(dims)
	d.ApplyAt(linalg.PauliX(), 0)
	collapses := RelaxationCollapses(dims, 0, t1, 0)
	h := linalg.NewMatrix(2, 2)
	total := 10e-6
	steps := 200
	dt := total / float64(steps)
	for i := 0; i < steps; i++ {
		LindbladStepRK4(h, d.Density, collapses, dt)
	}
	want := math.Exp(-total / t1)
	got := d.PopulationOfLevel(0, 1)
	if !(math.Abs(got-want) <= 1e-4) {
		t.Fatalf("P(1) after T1 decay = %g, want %g", got, want)
	}
	if err := d.CheckPhysical(1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestT2Dephasing(t *testing.T) {
	// Prepare |+⟩, evolve under dephasing, ⟨X⟩ decays as exp(-t/T2).
	t2 := 15e-6
	dims := []int{2}
	d := newDensity(dims)
	d.ApplyAt(testutil.Hadamard(), 0)
	collapses := RelaxationCollapses(dims, 0, 0, t2)
	h := linalg.NewMatrix(2, 2)
	total := 7e-6
	steps := 200
	dt := total / float64(steps)
	for i := 0; i < steps; i++ {
		LindbladStepRK4(h, d.Density, collapses, dt)
	}
	want := math.Exp(-total / t2)
	got := real(d.Expectation(linalg.PauliX()))
	if !(math.Abs(got-want) <= 1e-3) {
		t.Fatalf("⟨X⟩ after dephasing = %g, want %g", got, want)
	}
}

func TestCombinedT1T2Consistency(t *testing.T) {
	// With T2 = 2·T1 (T1-limited), pure dephasing rate is zero and coherence
	// decays at 1/(2T1).
	t1 := 10e-6
	dims := []int{2}
	cs := RelaxationCollapses(dims, 0, t1, 2*t1)
	if len(cs) != 1 {
		t.Fatalf("T1-limited should give only the damping collapse, got %d", len(cs))
	}
	d := newDensity(dims)
	d.ApplyAt(testutil.Hadamard(), 0)
	h := linalg.NewMatrix(2, 2)
	total := 5e-6
	steps := 200
	for i := 0; i < steps; i++ {
		LindbladStepRK4(h, d.Density, cs, total/float64(steps))
	}
	want := math.Exp(-total / (2 * t1))
	got := real(d.Expectation(linalg.PauliX()))
	if !(math.Abs(got-want) <= 1e-3) {
		t.Fatalf("⟨X⟩ = %g, want %g", got, want)
	}
}

func TestLindbladTracePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dims := []int{2, 2}
	d := newDensity(dims)
	d.ApplyAt(testutil.Hadamard(), 0)
	d.ApplyAt(testutil.RX(0.8), 1)
	var collapses []Collapse
	collapses = append(collapses, RelaxationCollapses(dims, 0, 30e-6, 20e-6)...)
	collapses = append(collapses, RelaxationCollapses(dims, 1, 25e-6, 18e-6)...)
	// Random Hermitian drive.
	h := linalg.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64()) * 1e6
			if i == j {
				v = complex(real(v), 0)
			}
			h.Set(i, j, v)
			if i != j {
				h.Set(j, i, complex(real(v), -imag(v)))
			}
		}
	}
	for i := 0; i < 100; i++ {
		LindbladStepRK4(h, d.Density, collapses, 2e-9)
	}
	if !(math.Abs(d.Trace()-1) <= 1e-6) {
		t.Fatalf("trace drifted to %g", d.Trace())
	}
	if err := d.CheckPhysical(1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestPurityDecreasesUnderDecoherence(t *testing.T) {
	dims := []int{2}
	d := newDensity(dims)
	d.ApplyAt(testutil.Hadamard(), 0)
	p0 := d.Purity()
	cs := RelaxationCollapses(dims, 0, 10e-6, 5e-6)
	h := linalg.NewMatrix(2, 2)
	for i := 0; i < 100; i++ {
		LindbladStepRK4(h, d.Density, cs, 50e-9)
	}
	if d.Purity() >= p0 {
		t.Fatalf("purity did not decrease: %g -> %g", p0, d.Purity())
	}
}

func TestRelaxationCollapsesDisabled(t *testing.T) {
	if cs := RelaxationCollapses([]int{2}, 0, 0, 0); len(cs) != 0 {
		t.Fatal("disabled channels should produce no collapses")
	}
}

func TestFromStateMatchesExpectations(t *testing.T) {
	s := newState([]int{2})
	s.ApplyAt(testutil.Hadamard(), 0)
	d := FromState(s)
	ex := real(d.Expectation(linalg.PauliX()))
	if !(math.Abs(ex-1) <= 1e-12) {
		t.Fatalf("⟨X⟩ = %g, want 1", ex)
	}
}

func TestStateFidelityDensity(t *testing.T) {
	s := newState([]int{2})
	s.ApplyAt(testutil.Hadamard(), 0)
	d := FromState(s)
	if f := StateFidelity(d, s); !(math.Abs(f-1) <= 1e-12) {
		t.Fatalf("fidelity = %g, want 1", f)
	}
	orth := newState([]int{2})
	orth.ApplyAt(testutil.Hadamard(), 0)
	orth.ApplyAt(linalg.PauliZ(), 0)
	if f := StateFidelity(d, orth); !(f <= 1e-12) {
		t.Fatalf("fidelity = %g, want 0", f)
	}
}

func TestDensitySampleBits(t *testing.T) {
	d := newDensity([]int{2})
	d.ApplyAt(testutil.Hadamard(), 0)
	rng := rand.New(rand.NewSource(3))
	n1 := 0
	shots := 20000
	for _, b := range d.SampleBits(rng, []int{0}, shots) {
		if b == 1 {
			n1++
		}
	}
	if p := float64(n1) / float64(shots); !(math.Abs(p-0.5) <= 0.02) {
		t.Fatalf("P(1) = %g, want 0.5", p)
	}
}

// Populations returns the diagonal of ρ.
func (d *Density) Populations() []float64 {
	p := make([]float64, d.Rho.Rows)
	for i := 0; i < d.Rho.Rows; i++ {
		p[i] = real(d.Rho.At(i, i))
	}
	return p
}
