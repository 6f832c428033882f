package waveform

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Envelope is a parametrized pulse shape: assigning concrete parameter
// values and a sample count evaluates it to an explicit Waveform. This is
// the paper's second way of defining waveforms ("parametrized functions
// which ... evaluate to a concrete array of samples").
type Envelope interface {
	// Kind returns the envelope family name (e.g. "gaussian").
	Kind() string
	// Params returns the envelope's parameter map (stable for serialization).
	Params() map[string]float64
	// Materialize evaluates the envelope to n samples.
	Materialize(name string, n int) (*Waveform, error)
}

// Gaussian is a Gaussian envelope: A·exp(-(t-μ)²/2σ²) with μ = center and σ
// expressed in samples. The envelope is lifted so it starts and ends at
// (numerically) zero amplitude.
type Gaussian struct {
	Amplitude float64 // peak amplitude, |A| ≤ 1
	SigmaFrac float64 // σ as a fraction of the pulse length (typ. 0.15-0.25)
}

// Kind implements Envelope.
func (g Gaussian) Kind() string { return "gaussian" }

// Params implements Envelope.
func (g Gaussian) Params() map[string]float64 {
	return map[string]float64{"amplitude": g.Amplitude, "sigma_frac": g.SigmaFrac}
}

// Materialize implements Envelope.
func (g Gaussian) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(g.Amplitude); err != nil {
		return nil, err
	}
	if g.SigmaFrac <= 0 || n <= 0 {
		return nil, fmt.Errorf("%w: gaussian sigma_frac=%g n=%d", ErrBadParam, g.SigmaFrac, n)
	}
	if n == 1 {
		// The lifted Gaussian divides by 1−edge, and with a single sample
		// μ = 0 makes edge = 1: the 0/0 produced NaN samples that surfaced
		// as a confusing waveform.New rejection.
		return nil, fmt.Errorf("%w: gaussian needs n ≥ 2 samples (lifted edge undefined for n=1)", ErrBadParam)
	}
	sigma := g.SigmaFrac * float64(n)
	mu := float64(n-1) / 2
	samples := make([]complex128, n)
	// Lifted Gaussian: subtract edge value and renormalize so ends are 0.
	edge := math.Exp(-mu * mu / (2 * sigma * sigma))
	for i := 0; i < n; i++ {
		t := float64(i)
		v := math.Exp(-(t - mu) * (t - mu) / (2 * sigma * sigma))
		samples[i] = complex(g.Amplitude*(v-edge)/(1-edge), 0)
	}
	return New(name, samples)
}

// DRAG is a Derivative Removal by Adiabatic Gate envelope: Gaussian on the
// in-phase quadrature with a scaled derivative on the quadrature component,
// suppressing leakage to the |2⟩ level in weakly-anharmonic qubits.
type DRAG struct {
	Amplitude float64 // peak amplitude
	SigmaFrac float64 // σ as fraction of the pulse length
	Beta      float64 // DRAG coefficient (≈ -1/anharmonicity in angular units)
}

// Kind implements Envelope.
func (d DRAG) Kind() string { return "drag" }

// Params implements Envelope.
func (d DRAG) Params() map[string]float64 {
	return map[string]float64{"amplitude": d.Amplitude, "sigma_frac": d.SigmaFrac, "beta": d.Beta}
}

// Materialize implements Envelope.
func (d DRAG) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(d.Amplitude); err != nil {
		return nil, err
	}
	if d.SigmaFrac <= 0 || n <= 0 {
		return nil, fmt.Errorf("%w: drag sigma_frac=%g n=%d", ErrBadParam, d.SigmaFrac, n)
	}
	if n == 1 {
		// Same 0/0 as the lifted Gaussian (edge == 1 at n=1).
		return nil, fmt.Errorf("%w: drag needs n ≥ 2 samples (lifted edge undefined for n=1)", ErrBadParam)
	}
	sigma := d.SigmaFrac * float64(n)
	mu := float64(n-1) / 2
	edge := math.Exp(-mu * mu / (2 * sigma * sigma))
	samples := make([]complex128, n)
	maxMag := 0.0
	for i := 0; i < n; i++ {
		t := float64(i)
		g := math.Exp(-(t - mu) * (t - mu) / (2 * sigma * sigma))
		base := (g - edge) / (1 - edge)
		deriv := -(t - mu) / (sigma * sigma) * g / (1 - edge)
		re := d.Amplitude * base
		im := d.Amplitude * d.Beta * deriv
		samples[i] = complex(re, im)
		if m := math.Hypot(re, im); m > maxMag {
			maxMag = m
		}
	}
	// Rescale if the quadrature pushed the magnitude above full scale.
	if maxMag > 1 {
		inv := complex(1/maxMag, 0)
		for i := range samples {
			samples[i] *= inv
		}
	}
	return New(name, samples)
}

// Constant is a flat (square) envelope.
type Constant struct {
	Amplitude float64
}

// Kind implements Envelope.
func (c Constant) Kind() string { return "constant" }

// Params implements Envelope.
func (c Constant) Params() map[string]float64 {
	return map[string]float64{"amplitude": c.Amplitude}
}

// Materialize implements Envelope.
func (c Constant) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(c.Amplitude); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: constant n=%d", ErrBadParam, n)
	}
	samples := make([]complex128, n)
	for i := range samples {
		samples[i] = complex(c.Amplitude, 0)
	}
	return New(name, samples)
}

// GaussianSquare is a flat-top pulse with Gaussian rise and fall edges, the
// workhorse shape for two-qubit cross-resonance / coupler pulses.
type GaussianSquare struct {
	Amplitude float64
	RiseFrac  float64 // fraction of total length used by each edge (0, 0.5)
}

// Kind implements Envelope.
func (g GaussianSquare) Kind() string { return "gaussian_square" }

// Params implements Envelope.
func (g GaussianSquare) Params() map[string]float64 {
	return map[string]float64{"amplitude": g.Amplitude, "rise_frac": g.RiseFrac}
}

// Materialize implements Envelope.
func (g GaussianSquare) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(g.Amplitude); err != nil {
		return nil, err
	}
	if g.RiseFrac <= 0 || g.RiseFrac >= 0.5 || n <= 0 {
		return nil, fmt.Errorf("%w: gaussian_square rise_frac=%g n=%d", ErrBadParam, g.RiseFrac, n)
	}
	rise := int(math.Max(1, g.RiseFrac*float64(n)))
	sigma := float64(rise) / 2.5
	samples := make([]complex128, n)
	for i := 0; i < n; i++ {
		var v float64
		switch {
		case i < rise:
			t := float64(i - rise)
			v = math.Exp(-t * t / (2 * sigma * sigma))
		case i >= n-rise:
			t := float64(i - (n - rise - 1))
			v = math.Exp(-t * t / (2 * sigma * sigma))
		default:
			v = 1
		}
		samples[i] = complex(g.Amplitude*v, 0)
	}
	return New(name, samples)
}

// RaisedCosine is a Hann-windowed envelope A·sin²(πt/T); smooth at both
// ends, common for neutral-atom Rydberg pulses.
type RaisedCosine struct {
	Amplitude float64
}

// Kind implements Envelope.
func (r RaisedCosine) Kind() string { return "raised_cosine" }

// Params implements Envelope.
func (r RaisedCosine) Params() map[string]float64 {
	return map[string]float64{"amplitude": r.Amplitude}
}

// Materialize implements Envelope.
func (r RaisedCosine) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(r.Amplitude); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: raised_cosine n=%d", ErrBadParam, n)
	}
	samples := make([]complex128, n)
	for i := 0; i < n; i++ {
		s := math.Sin(math.Pi * float64(i) / float64(n-1+boolToInt(n == 1)))
		samples[i] = complex(r.Amplitude*s*s, 0)
	}
	return New(name, samples)
}

// Blackman is a Blackman-windowed envelope with very low spectral leakage,
// used for frequency-selective addressing in trapped-ion systems.
type Blackman struct {
	Amplitude float64
}

// Kind implements Envelope.
func (b Blackman) Kind() string { return "blackman" }

// Params implements Envelope.
func (b Blackman) Params() map[string]float64 {
	return map[string]float64{"amplitude": b.Amplitude}
}

// Materialize implements Envelope.
func (b Blackman) Materialize(name string, n int) (*Waveform, error) {
	if err := checkAmp(b.Amplitude); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: blackman n=%d", ErrBadParam, n)
	}
	const a0, a1, a2 = 0.42, 0.5, 0.08
	samples := make([]complex128, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1+boolToInt(n == 1))
		v := a0 - a1*math.Cos(2*math.Pi*x) + a2*math.Cos(4*math.Pi*x)
		samples[i] = complex(b.Amplitude*v/(a0+a1+a2)*(a0+a1+a2), 0) // peak at a0+a1+a2... normalize below
	}
	// Normalize so the peak equals Amplitude exactly.
	peak := 0.0
	for _, s := range samples {
		if v := math.Abs(real(s)); v > peak {
			peak = v
		}
	}
	if peak > 0 {
		for i := range samples {
			samples[i] = complex(real(samples[i])/peak*b.Amplitude, 0)
		}
	}
	return New(name, samples)
}

// EnvelopeFromSpec reconstructs an Envelope from its (kind, params) form,
// the inverse of Kind()/Params(): the form an MLIR `kind = …` def is written
// in. params must name exactly the kind's parameters; an unknown or missing
// name is ErrBadParam, not a zero.
func EnvelopeFromSpec(kind string, params map[string]float64) (Envelope, error) {
	var e Envelope
	switch kind {
	case "gaussian":
		e = Gaussian{Amplitude: params["amplitude"], SigmaFrac: params["sigma_frac"]}
	case "drag":
		e = DRAG{Amplitude: params["amplitude"], SigmaFrac: params["sigma_frac"], Beta: params["beta"]}
	case "constant":
		e = Constant{Amplitude: params["amplitude"]}
	case "gaussian_square":
		e = GaussianSquare{Amplitude: params["amplitude"], RiseFrac: params["rise_frac"]}
	case "raised_cosine":
		e = RaisedCosine{Amplitude: params["amplitude"]}
	case "blackman":
		e = Blackman{Amplitude: params["amplitude"]}
	default:
		return nil, fmt.Errorf("%w: unknown envelope kind %q", ErrBadParam, kind)
	}
	want := e.Params()
	for _, k := range slices.Sorted(maps.Keys(params)) {
		if _, ok := want[k]; !ok {
			return nil, fmt.Errorf("%w: %s envelope has no parameter %q", ErrBadParam, kind, k)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		if _, ok := params[k]; !ok {
			return nil, fmt.Errorf("%w: %s envelope needs parameter %q", ErrBadParam, kind, k)
		}
	}
	return e, nil
}

// Kinds returns the registered envelope kinds, sorted, for capability
// advertisement through QDMI.
func Kinds() []string {
	ks := []string{"gaussian", "drag", "constant", "gaussian_square", "raised_cosine", "blackman"}
	slices.Sort(ks)
	return ks
}

func checkAmp(a float64) error {
	if math.Abs(a) > 1 {
		return fmt.Errorf("%w: amplitude %g", ErrAmplitudeRange, a)
	}
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
