package readout

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeasLevelStringRoundTrip(t *testing.T) {
	for _, l := range []MeasLevel{LevelDiscriminated, LevelKerneled, LevelRaw} {
		got, err := ParseMeasLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseMeasLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if l, err := ParseMeasLevel(""); err != nil || l != LevelDiscriminated {
		t.Fatalf("empty level should parse as discriminated, got %v, %v", l, err)
	}
	if _, err := ParseMeasLevel("bogus"); err == nil {
		t.Fatal("bogus level accepted")
	}
	for _, r := range []MeasReturn{ReturnSingle, ReturnAverage} {
		got, err := ParseMeasReturn(r.String())
		if err != nil || got != r {
			t.Fatalf("ParseMeasReturn(%q) = %v, %v", r.String(), got, err)
		}
	}
}

func TestBoxcarIntegrate(t *testing.T) {
	trace := []complex128{complex(1, 2), complex(3, -2), complex(2, 0)}
	p := Boxcar{}.Integrate(trace)
	if !(math.Abs(p.I-2) <= 1e-12) || !(math.Abs(p.Q-0) <= 1e-12) {
		t.Fatalf("boxcar = %+v, want (2, 0)", p)
	}
	if p := (Boxcar{}).Integrate(nil); p != (IQ{}) {
		t.Fatalf("boxcar of empty trace = %+v", p)
	}
}

// gaussianClouds synthesizes labeled training data: two clouds separated
// along an arbitrary axis.
func gaussianClouds(rng *rand.Rand, n int, sep, angle float64) (zeros, ones []IQ) {
	ci, cq := sep/2*math.Cos(angle), sep/2*math.Sin(angle)
	for i := 0; i < n; i++ {
		zeros = append(zeros, IQ{-ci + rng.NormFloat64(), -cq + rng.NormFloat64()})
		ones = append(ones, IQ{ci + rng.NormFloat64(), cq + rng.NormFloat64()})
	}
	return zeros, ones
}

func TestDiscriminatorsSeparateClouds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zeros, ones := gaussianClouds(rng, 4000, 6, 0.7)
	hold0, hold1 := gaussianClouds(rng, 4000, 6, 0.7)
	// d=6σ ⇒ single-shot error ½·erfc(6/(2√2)) ≈ 0.13%.
	for name, train := range map[string]func([]IQ, []IQ) (Discriminator, error){
		"centroid": func(z, o []IQ) (Discriminator, error) { return TrainCentroid(z, o) },
		"linear":   func(z, o []IQ) (Discriminator, error) { return TrainLinear(z, o) },
	} {
		d, err := train(zeros, ones)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f := AssignmentFidelity(d, hold0, hold1); f < 0.99 {
			t.Fatalf("%s: held-out fidelity %g < 0.99", name, f)
		}
	}
}

func TestLinearBeatsCentroidOnAnisotropicNoise(t *testing.T) {
	// Clouds separated along I but with huge correlated Q noise leaking
	// into I: LDA rotates the boundary, the centroid rule cannot.
	rng := rand.New(rand.NewSource(11))
	gen := func(n int) (zeros, ones []IQ) {
		for i := 0; i < n; i++ {
			q := 6 * rng.NormFloat64()
			zeros = append(zeros, IQ{-1.2 + 0.9*q + 0.5*rng.NormFloat64(), q})
			q = 6 * rng.NormFloat64()
			ones = append(ones, IQ{1.2 + 0.9*q + 0.5*rng.NormFloat64(), q})
		}
		return
	}
	trn0, trn1 := gen(6000)
	tst0, tst1 := gen(6000)
	lin, err := TrainLinear(trn0, trn1)
	if err != nil {
		t.Fatal(err)
	}
	cen, err := TrainCentroid(trn0, trn1)
	if err != nil {
		t.Fatal(err)
	}
	fl := AssignmentFidelity(lin, tst0, tst1)
	fc := AssignmentFidelity(cen, tst0, tst1)
	if fl <= fc {
		t.Fatalf("linear (%g) should beat centroid (%g) on anisotropic noise", fl, fc)
	}
	if fl < 0.95 {
		t.Fatalf("linear fidelity %g too low", fl)
	}
}

func TestTrainingRejectsDegenerateData(t *testing.T) {
	same := []IQ{{1, 1}, {1, 1}, {1, 1}}
	if _, err := TrainCentroid(same, same); err == nil {
		t.Fatal("centroid trained on identical means")
	}
	if _, err := TrainCentroid(nil, same); err == nil {
		t.Fatal("centroid trained on empty class")
	}
	if _, err := TrainLinear(same[:1], same); err == nil {
		t.Fatal("linear trained on one shot")
	}
}

func TestDiscriminatorSerializationRoundTrip(t *testing.T) {
	models := []Discriminator{
		&Centroid{Mean0: IQ{-1, 0.5}, Mean1: IQ{2, -0.25}},
		&Linear{WI: 1.5, WQ: -0.75, Bias: 0.125},
	}
	probe := []IQ{{0, 0}, {1, 1}, {-3, 2}, {0.4, -0.9}}
	for _, d := range models {
		data, err := EncodeDiscriminator(d)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeDiscriminator(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind() != d.Kind() {
			t.Fatalf("kind changed: %s → %s", d.Kind(), back.Kind())
		}
		for _, p := range probe {
			if back.Discriminate(p) != d.Discriminate(p) {
				t.Fatalf("%s: decision changed at %+v after round trip", d.Kind(), p)
			}
		}
	}
	if _, err := DecodeDiscriminator([]byte(`{"kind":"mystery","data":{}}`)); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, err := DecodeDiscriminator([]byte(`nope`)); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestConfusionValidate(t *testing.T) {
	if err := (Confusion{P01: 0.02, P10: 0.05}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Confusion{
		{P01: -0.1}, {P10: 1.2}, {P01: 0.5, P10: 0.5}, {P01: 0.7, P10: 0.6},
	} {
		if err := c.Validate(); err == nil {
			t.Fatalf("confusion %+v validated", c)
		}
	}
}

func TestMitigatorRecoversTrueDistribution(t *testing.T) {
	// True state: 80% |11⟩, 20% |00⟩ on bits 0 and 2; push it through
	// known per-bit confusion matrices and check Apply recovers it.
	rng := rand.New(rand.NewSource(3))
	mats := []Confusion{{P01: 0.04, P10: 0.09}, {P01: 0.07, P10: 0.02}}
	bits := []int{0, 2}
	shots := 200000
	counts := map[uint64]int{}
	for k := 0; k < shots; k++ {
		var truth [2]int
		if rng.Float64() < 0.8 {
			truth = [2]int{1, 1}
		}
		var mask uint64
		for i, b := range bits {
			v := truth[i]
			if v == 0 && rng.Float64() < mats[i].P01 {
				v = 1
			} else if v == 1 && rng.Float64() < mats[i].P10 {
				v = 0
			}
			mask |= uint64(v) << uint(b)
		}
		counts[mask]++
	}
	m, err := NewMitigator(bits, mats)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.Apply(counts, shots)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[0b101]-0.8) > 0.01 || math.Abs(probs[0]-0.2) > 0.01 {
		t.Fatalf("mitigated distribution off: %+v", probs)
	}
	// Mitigation must beat the raw histogram.
	rawErr := math.Abs(float64(counts[0b101])/float64(shots) - 0.8)
	mitErr := math.Abs(probs[0b101] - 0.8)
	if mitErr >= rawErr {
		t.Fatalf("mitigation did not improve: raw err %g, mitigated err %g", rawErr, mitErr)
	}
}

func TestMitigatorRejectsBadInput(t *testing.T) {
	if _, err := NewMitigator(nil, nil); err == nil {
		t.Fatal("empty mitigator accepted")
	}
	if _, err := NewMitigator([]int{0, 0}, make([]Confusion, 2)); err == nil {
		t.Fatal("duplicate bit accepted")
	}
	if _, err := NewMitigator([]int{0}, []Confusion{{P01: 0.6, P10: 0.6}}); err == nil {
		t.Fatal("singular matrix accepted")
	}
	m, err := NewMitigator([]int{1}, []Confusion{{P01: 0.05, P10: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(map[uint64]int{0b100: 5}, 5); err == nil {
		t.Fatal("counts on unmitigated bit accepted")
	}
	if _, err := m.Apply(map[uint64]int{}, 0); err == nil {
		t.Fatal("zero shots accepted")
	}
}

// AssignmentFidelity is the balanced single-shot fidelity
// 1 − (e01 + e10)/2 of a discriminator on labeled hold-out shots.
func AssignmentFidelity(d Discriminator, zeros, ones []IQ) float64 {
	e01, e10 := AssignmentError(d, zeros, ones)
	return 1 - (e01+e10)/2
}
