package simq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mqsspulse/internal/linalg"
	"mqsspulse/internal/testutil"
)

func TestNewStateGround(t *testing.T) {
	s := NewState([]int{2, 3, 2})
	if s.Dim() != 12 {
		t.Fatalf("dim = %d, want 12", s.Dim())
	}
	if s.Amp[0] != 1 {
		t.Fatal("not in ground state")
	}
	if !(math.Abs(s.Norm()-1) <= 1e-12) {
		t.Fatal("norm != 1")
	}
}

func TestNewStatePanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewState([]int{2, 1})
}

func TestApplyAtMatchesFullKron(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := []int{2, 3, 2}
	// Random normalized state.
	s1 := newState(dims)
	for i := range s1.Amp {
		s1.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	testutil.Normalize(s1.Amp)
	s2 := s1.Clone()

	op := testutil.RX(0.7)
	s1.ApplyAt(op, 0)
	s2.ApplyFull(linalg.EmbedAt(op, dims, 0))
	for i := range s1.Amp {
		if d := s1.Amp[i] - s2.Amp[i]; !(real(d)*real(d)+imag(d)*imag(d) <= 1e-18) {
			t.Fatalf("site 0 mismatch at %d", i)
		}
	}

	// Middle site with dim 3.
	op3 := linalg.Annihilation(3).Add(linalg.Creation(3)).Scale(complex(0, 1))
	u3, err := linalg.ExpI(op3.Add(op3.Dagger()).Scale(0.5), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	s3 := s1.Clone()
	s4 := s1.Clone()
	s3.ApplyAt(u3, 1)
	s4.ApplyFull(linalg.EmbedAt(u3, dims, 1))
	for i := range s3.Amp {
		if d := s3.Amp[i] - s4.Amp[i]; !(real(d)*real(d)+imag(d)*imag(d) <= 1e-18) {
			t.Fatalf("site 1 mismatch at %d", i)
		}
	}
}

func TestApplyTwoMatchesEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{2, 2, 2}
	s1 := newState(dims)
	for i := range s1.Amp {
		s1.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	testutil.Normalize(s1.Amp)
	s2 := s1.Clone()
	cz := testutil.CZ()
	s1.ApplyTwo(cz, 1, 2)
	s2.ApplyFull(linalg.EmbedTwo(cz, dims, 1))
	for i := range s1.Amp {
		if d := s1.Amp[i] - s2.Amp[i]; !(real(d)*real(d)+imag(d)*imag(d) <= 1e-18) {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestApplyTwoNonAdjacent(t *testing.T) {
	// CNOT between sites 0 and 2 (stride-crossing).
	dims := []int{2, 2, 2}
	s := newState(dims)
	s.ApplyAt(linalg.PauliX(), 0) // |100⟩
	s.ApplyTwo(testutil.CNOT(), 0, 2)
	// Expect |101⟩ = index 5.
	if !(math.Abs(real(s.Amp[5])-1) <= 1e-12) {
		t.Fatalf("CNOT(0→2) failed: %v", s.Amp)
	}
}

func TestUnitaryPreservesNormQuick(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		s := newState([]int{2, 2})
		s.ApplyAt(testutil.Hadamard(), 0)
		s.ApplyTwo(testutil.CNOT(), 0, 1)
		s.ApplyAt(testutil.RZ(math.Mod(theta, math.Pi)), 1)
		return math.Abs(s.Norm()-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSiteLevel(t *testing.T) {
	dims := []int{2, 3, 2}
	// index = l0*6 + l1*2 + l2
	idx := 1*6 + 2*2 + 1
	if SiteLevel(dims, idx, 0) != 1 || SiteLevel(dims, idx, 1) != 2 || SiteLevel(dims, idx, 2) != 1 {
		t.Fatal("SiteLevel decoding wrong")
	}
}

func TestSampleBitsBellState(t *testing.T) {
	s := newState([]int{2, 2})
	s.ApplyAt(testutil.Hadamard(), 0)
	s.ApplyTwo(testutil.CNOT(), 0, 1)
	rng := rand.New(rand.NewSource(1))
	shots := 20000
	samples := s.SampleBits(rng, []int{0, 1}, shots)
	counts := map[uint64]int{}
	for _, b := range samples {
		counts[b]++
	}
	if counts[0b01] != 0 || counts[0b10] != 0 {
		t.Fatalf("Bell state produced odd-parity outcomes: %v", counts)
	}
	p00 := float64(counts[0b00]) / float64(shots)
	if !(math.Abs(p00-0.5) <= 0.02) {
		t.Fatalf("P(00) = %g, want ~0.5", p00)
	}
}

func TestSampleBitsLeakageReadsAsOne(t *testing.T) {
	s := newState([]int{3})
	// Move population to |2⟩.
	u := linalg.NewMatrix(3, 3)
	u.Set(0, 2, 1)
	u.Set(2, 0, 1)
	u.Set(1, 1, 1)
	s.ApplyFull(u)
	rng := rand.New(rand.NewSource(2))
	for _, b := range s.SampleBits(rng, []int{0}, 100) {
		if b != 1 {
			t.Fatal("leaked level did not discriminate as 1")
		}
	}
}

func TestPopulationOfLevel(t *testing.T) {
	s := newState([]int{2, 2})
	s.ApplyAt(testutil.Hadamard(), 1)
	if p := s.PopulationOfLevel(1, 1); !(math.Abs(p-0.5) <= 1e-12) {
		t.Fatalf("P(site1=1) = %g, want 0.5", p)
	}
	if p := s.PopulationOfLevel(0, 1); !(p <= 1e-12) {
		t.Fatalf("P(site0=1) = %g, want 0", p)
	}
}

func TestFidelityPureStates(t *testing.T) {
	a := newState([]int{2})
	b := newState([]int{2})
	if f := Fidelity(a.State, b.State); !(math.Abs(f-1) <= 1e-12) {
		t.Fatal("identical states should have fidelity 1")
	}
	b.ApplyAt(linalg.PauliX(), 0)
	if f := Fidelity(a.State, b.State); !(f <= 1e-12) {
		t.Fatal("orthogonal states should have fidelity 0")
	}
	b2 := newState([]int{2})
	b2.ApplyAt(testutil.Hadamard(), 0)
	if f := Fidelity(a.State, b2.State); !(math.Abs(f-0.5) <= 1e-12) {
		t.Fatalf("fidelity = %g, want 0.5", f)
	}
}

func TestExpectation(t *testing.T) {
	s := newState([]int{2})
	s.ApplyAt(testutil.Hadamard(), 0)
	x := s.Expectation(linalg.PauliX())
	if !(math.Abs(real(x)-1) <= 1e-12) {
		t.Fatalf("⟨X⟩ = %v, want 1", x)
	}
	z := s.Expectation(linalg.PauliZ())
	if !(math.Abs(real(z)) <= 1e-12) {
		t.Fatalf("⟨Z⟩ = %v, want 0", z)
	}
}

func TestGlobalPhaseAlign(t *testing.T) {
	s := newState([]int{2})
	s.ApplyAt(testutil.RZ(1.3), 0) // adds global-ish phase to |0⟩ component
	s.GlobalPhaseAlign()
	if !(imag(s.Amp[0]) <= 1e-12 && real(s.Amp[0]) >= 0) {
		t.Fatalf("not aligned: %v", s.Amp[0])
	}
}

// Probabilities returns |amp|² for every basis index.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.Amp))
	for i, a := range s.Amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// binarySearchIndex is drawIndex as an ordinary branching binary search over
// [0, len(cum)−1]: the reference the branch-light search must agree with on
// every input, NaN and infinite masses included.
func binarySearchIndex(cum []float64, total, u float64) int {
	r := u * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestDrawIndexMatchesSortSearch(t *testing.T) {
	// Property: drawIndex returns the first i with cum[i] ≥ u·total, clamped
	// to the last index (sort.Search's answer), on random distributions with
	// zero-probability runs and negative noise, at u = 0, just below 1, at
	// random, and where u·total lands exactly on each boundary.
	rng := rand.New(rand.NewSource(5))
	var boundaries int
	for trial := 0; trial < 20000; trial++ {
		probs := make([]float64, 1+rng.Intn(40))
		for i := range probs {
			switch rng.Intn(4) {
			case 0: // a zero-probability entry
			case 1:
				probs[i] = float64(rng.Intn(4)) // integer weights meet exactly
			case 2:
				probs[i] = -1e-17 * rng.Float64() // integration noise, clamped
			default:
				probs[i] = rng.Float64()
			}
		}
		cum := make([]float64, len(probs))
		total := buildCum(cum, probs)
		us := []float64{0, rng.Float64(), math.Nextafter(1, 0)}
		for _, c := range cum {
			if u := c / total; total > 0 && u < 1 {
				us = append(us, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
				if u*total == c {
					boundaries++
				}
			}
		}
		for _, u := range us {
			r := u * total
			want := min(sort.Search(len(cum), func(i int) bool { return cum[i] >= r }), len(cum)-1)
			if got := drawIndex(cum, total, u); got != want || got != binarySearchIndex(cum, total, u) {
				t.Fatalf("cum %v, u %v: drawIndex %d, want %d", cum, u, got, want)
			}
		}
	}
	if boundaries < 10000 {
		t.Fatalf("only %d draws landed exactly on a boundary", boundaries)
	}
	// A NaN or infinite mass: the branching search's answer.
	for _, probs := range [][]float64{{0.5, math.NaN(), 0.5}, {0.2, math.Inf(1), 0.3}, {math.Inf(1)}} {
		cum := make([]float64, len(probs))
		total := buildCum(cum, probs)
		for _, u := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			if got, want := drawIndex(cum, total, u), binarySearchIndex(cum, total, u); got != want {
				t.Fatalf("cum %v, u %v: drawIndex %d, binary search %d", cum, u, got, want)
			}
		}
	}
}
