package waveform

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("w", nil); err != ErrEmpty {
		t.Fatalf("empty: got %v, want ErrEmpty", err)
	}
	if _, err := New("w", []complex128{complex(1.5, 0)}); err == nil {
		t.Fatal("over-range sample accepted")
	}
	w, err := New("w", []complex128{0.5, complex(0, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []complex128{0.1, 0.2}
	w, _ := New("w", in)
	in[0] = 0.9
	if w.Samples[0] != 0.1 {
		t.Fatal("New did not copy its input")
	}
}

func TestFromReal(t *testing.T) {
	w, err := FromReal("w", []float64{0.1, -0.3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Samples[1] != complex(-0.3, 0) {
		t.Fatal("FromReal mapping wrong")
	}
}

func TestScaleEnergy(t *testing.T) {
	// Energy scales quadratically with amplitude scale.
	f := func(raw float64) bool {
		s := math.Mod(math.Abs(raw), 1.0)
		w, _ := FromReal("w", []float64{0.5, 0.25, 0.125})
		sw, err := w.Scale(complex(s, 0))
		if err != nil {
			return false
		}
		return math.Abs(sw.Energy()-s*s*w.Energy()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleRejectsOverflow(t *testing.T) {
	w, _ := FromReal("w", []float64{0.9})
	if _, err := w.Scale(2); err == nil {
		t.Fatal("Scale accepted overflow")
	}
}

func TestPhaseShiftPreservesMagnitude(t *testing.T) {
	f := func(phi float64) bool {
		w, _ := FromReal("w", []float64{0.7, 0.2, -0.4})
		shifted := w.PhaseShift(phi)
		for i := range w.Samples {
			if math.Abs(cmplx.Abs(shifted.Samples[i])-cmplx.Abs(w.Samples[i])) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseShiftComposes(t *testing.T) {
	w, _ := FromReal("w", []float64{0.5, 0.5})
	a := w.PhaseShift(0.3).PhaseShift(0.4)
	b := w.PhaseShift(0.7)
	if !a.Equal(b, 1e-12) {
		t.Fatal("phase shifts do not compose additively")
	}
}

func TestConcat(t *testing.T) {
	a, _ := FromReal("a", []float64{0.1})
	b, _ := FromReal("b", []float64{0.2, 0.3})
	c := a.Concat(b)
	if c.Len() != 3 || c.Samples[2] != complex(0.3, 0) {
		t.Fatal("Concat wrong")
	}
}

func TestAreaLinearInAmplitude(t *testing.T) {
	g1, _ := Gaussian{Amplitude: 0.4, SigmaFrac: 0.2}.Materialize("g", 64)
	g2, _ := Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 64)
	if math.Abs(g2.Area()-2*g1.Area()) > 1e-9 {
		t.Fatalf("area not linear: %g vs %g", g2.Area(), 2*g1.Area())
	}
}

func TestResample(t *testing.T) {
	w, _ := FromReal("w", []float64{0, 0.5, 1.0})
	up, err := w.Resample(5)
	if err != nil {
		t.Fatal(err)
	}
	if up.Len() != 5 {
		t.Fatalf("len = %d, want 5", up.Len())
	}
	// Endpoints preserved.
	if cmplx.Abs(up.Samples[0]-w.Samples[0]) > 1e-12 || cmplx.Abs(up.Samples[4]-w.Samples[2]) > 1e-12 {
		t.Fatal("resample endpoints not preserved")
	}
	if _, err := w.Resample(0); err == nil {
		t.Fatal("Resample(0) accepted")
	}
	same, _ := w.Resample(3)
	if !same.Equal(w, 0) {
		t.Fatal("identity resample changed samples")
	}
	one, _ := New("c", []complex128{0.5})
	stretched, err := one.Resample(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stretched.Samples {
		if s != 0.5 {
			t.Fatal("single-sample resample should be constant")
		}
	}
}

func TestPadTo(t *testing.T) {
	w, _ := FromReal("w", []float64{0.1, 0.2, 0.3})
	p := w.PadTo(4)
	if p.Len() != 4 || p.Samples[3] != 0 {
		t.Fatalf("PadTo(4): len=%d", p.Len())
	}
	if w.PadTo(1).Len() != 3 || w.PadTo(3).Len() != 3 {
		t.Fatal("PadTo no-op cases wrong")
	}
}

func TestGaussianShape(t *testing.T) {
	g, err := Gaussian{Amplitude: 0.9, SigmaFrac: 0.2}.Materialize("g", 101)
	if err != nil {
		t.Fatal(err)
	}
	// Peak at center, ~zero at edges, symmetric.
	if math.Abs(real(g.Samples[50])-0.9) > 1e-9 {
		t.Fatalf("peak = %v, want 0.9", g.Samples[50])
	}
	if cmplx.Abs(g.Samples[0]) > 1e-9 || cmplx.Abs(g.Samples[100]) > 1e-9 {
		t.Fatal("edges not lifted to zero")
	}
	for i := 0; i <= 50; i++ {
		if cmplx.Abs(g.Samples[i]-g.Samples[100-i]) > 1e-9 {
			t.Fatalf("asymmetric at %d", i)
		}
	}
}

func TestDRAGQuadrature(t *testing.T) {
	d, err := DRAG{Amplitude: 0.8, SigmaFrac: 0.2, Beta: 0.5}.Materialize("d", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Q component must be antisymmetric (derivative of symmetric I).
	for i := 0; i < 32; i++ {
		if math.Abs(imag(d.Samples[i])+imag(d.Samples[63-i])) > 1e-9 {
			t.Fatalf("DRAG quadrature not antisymmetric at %d", i)
		}
	}
	// Beta=0 reduces to plain Gaussian.
	d0, _ := DRAG{Amplitude: 0.8, SigmaFrac: 0.2, Beta: 0}.Materialize("d", 64)
	g, _ := Gaussian{Amplitude: 0.8, SigmaFrac: 0.2}.Materialize("g", 64)
	if !d0.Equal(g, 1e-9) {
		t.Fatal("DRAG(beta=0) != Gaussian")
	}
}

func TestGaussianSquareFlatTop(t *testing.T) {
	g, err := GaussianSquare{Amplitude: 0.6, RiseFrac: 0.2}.Materialize("gs", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 75; i++ {
		if math.Abs(real(g.Samples[i])-0.6) > 1e-9 {
			t.Fatalf("top not flat at %d: %v", i, g.Samples[i])
		}
	}
	if g.PeakAmplitude() > 0.6+1e-12 {
		t.Fatal("peak exceeds amplitude")
	}
}

func TestAllEnvelopesPeakBound(t *testing.T) {
	envs := []Envelope{
		Gaussian{Amplitude: 1.0, SigmaFrac: 0.15},
		DRAG{Amplitude: 1.0, SigmaFrac: 0.15, Beta: 2.0},
		Constant{Amplitude: 1.0},
		GaussianSquare{Amplitude: 1.0, RiseFrac: 0.1},
		RaisedCosine{Amplitude: 1.0},
		Blackman{Amplitude: 1.0},
	}
	for _, e := range envs {
		w, err := e.Materialize("w", 80)
		if err != nil {
			t.Fatalf("%s: %v", e.Kind(), err)
		}
		if w.PeakAmplitude() > 1+1e-9 {
			t.Errorf("%s: peak %g exceeds full scale", e.Kind(), w.PeakAmplitude())
		}
	}
}

func TestEnvelopeParamValidation(t *testing.T) {
	cases := []struct {
		name string
		env  Envelope
		n    int
	}{
		{"gaussian bad sigma", Gaussian{Amplitude: 0.5, SigmaFrac: 0}, 10},
		{"gaussian amp", Gaussian{Amplitude: 1.5, SigmaFrac: 0.2}, 10},
		{"drag bad sigma", DRAG{Amplitude: 0.5}, 10},
		{"const amp", Constant{Amplitude: -1.2}, 10},
		{"const n", Constant{Amplitude: 0.2}, 0},
		{"gs rise", GaussianSquare{Amplitude: 0.5, RiseFrac: 0.6}, 10},
		{"rc n", RaisedCosine{Amplitude: 0.5}, -1},
		{"blackman amp", Blackman{Amplitude: 2}, 10},
	}
	for _, c := range cases {
		if _, err := c.env.Materialize("w", c.n); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSingleSampleLiftedEnvelopesRejected(t *testing.T) {
	// n == 1 makes the lifted-Gaussian edge value exactly 1 and the
	// normalization 0/0: these used to produce NaN samples that surfaced
	// as an opaque waveform.New rejection. They must fail cleanly with
	// ErrBadParam instead.
	for _, c := range []struct {
		name string
		env  Envelope
	}{
		{"gaussian", Gaussian{Amplitude: 0.5, SigmaFrac: 0.2}},
		{"drag", DRAG{Amplitude: 0.5, SigmaFrac: 0.2, Beta: 1.0}},
	} {
		_, err := c.env.Materialize("w", 1)
		if !errors.Is(err, ErrBadParam) {
			t.Errorf("%s n=1: err = %v, want ErrBadParam", c.name, err)
		}
	}
	// The other envelope families remain well-defined at n == 1.
	for _, c := range []Envelope{
		Constant{Amplitude: 0.5},
		RaisedCosine{Amplitude: 0.5},
		Blackman{Amplitude: 0.5},
	} {
		w, err := c.Materialize("w", 1)
		if err != nil {
			t.Errorf("%s n=1: %v", c.Kind(), err)
			continue
		}
		if len(w.Samples) != 1 {
			t.Errorf("%s n=1: %d samples", c.Kind(), len(w.Samples))
		}
	}
}

func TestEnvelopeSpecRoundtrip(t *testing.T) {
	envs := []Envelope{
		Gaussian{Amplitude: 0.7, SigmaFrac: 0.18},
		DRAG{Amplitude: 0.6, SigmaFrac: 0.2, Beta: 1.1},
		Constant{Amplitude: 0.3},
		GaussianSquare{Amplitude: 0.9, RiseFrac: 0.15},
		RaisedCosine{Amplitude: 0.4},
		Blackman{Amplitude: 0.5},
	}
	for _, e := range envs {
		re, err := EnvelopeFromSpec(e.Kind(), e.Params())
		if err != nil {
			t.Fatalf("%s: %v", e.Kind(), err)
		}
		w1, _ := e.Materialize("w", 50)
		w2, _ := re.Materialize("w", 50)
		if !w1.Equal(w2, 1e-12) {
			t.Errorf("%s: roundtrip via spec differs", e.Kind())
		}
	}
	if _, err := EnvelopeFromSpec("nope", nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A parameter the kind does not have, or one it needs and is not given,
	// is ErrBadParam rather than a zero.
	for _, params := range []map[string]float64{
		{"amp": 0.5},
		{"amplitude": 0.5, "sigma_frac": 0.2, "bta": 3},
		{"amplitude": 0.5, "beta": 3},
	} {
		if _, err := EnvelopeFromSpec("drag", params); !errors.Is(err, ErrBadParam) {
			t.Errorf("drag %v: got %v, want ErrBadParam", params, err)
		}
	}
}

func TestKindsSortedAndComplete(t *testing.T) {
	ks := Kinds()
	if len(ks) != 6 {
		t.Fatalf("got %d kinds, want 6", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			t.Fatal("Kinds not sorted")
		}
	}
	own := map[string]map[string]float64{
		"gaussian":        {"amplitude": 0.1, "sigma_frac": 0.2},
		"drag":            {"amplitude": 0.1, "sigma_frac": 0.2, "beta": 0.5},
		"constant":        {"amplitude": 0.1},
		"gaussian_square": {"amplitude": 0.1, "rise_frac": 0.2},
		"raised_cosine":   {"amplitude": 0.1},
		"blackman":        {"amplitude": 0.1},
	}
	for _, k := range ks {
		if _, err := EnvelopeFromSpec(k, own[k]); err != nil {
			t.Errorf("advertised kind %q not constructible: %v", k, err)
		}
	}
}

// TestCheckIsNewsRule: Check accepts exactly the sample arrays New accepts,
// and leaves the waveform as it is.
func TestCheckIsNewsRule(t *testing.T) {
	for _, samples := range [][]complex128{
		nil,
		{0.5, complex(0, -0.5)},
		{1, complex(0, 1), complex(math.Sqrt(0.5), math.Sqrt(0.5))},
		{1 + 1e-9},
		{complex(0.8, 0.8)},
		{complex(math.NaN(), 0)},
		{complex(0, math.Inf(-1))},
	} {
		_, newErr := New("w", samples)
		w := &Waveform{Name: "w", Samples: samples}
		if err := w.Check(); (err == nil) != (newErr == nil) || (err != nil && err.Error() != newErr.Error()) {
			t.Errorf("%v: Check %v, New %v", samples, err, newErr)
		}
	}
}
