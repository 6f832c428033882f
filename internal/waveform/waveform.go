// Package waveform implements the paper's "waveform" pulse abstraction
// (Section 4): a time-ordered array of samples defining the amplitude
// envelope of a control signal. Amplitudes can be provided explicitly or by
// parametrized envelope functions which, when assigned parameter values,
// evaluate to a concrete array of samples.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// Errors returned by waveform construction and validation.
var (
	ErrEmpty          = errors.New("waveform: empty sample array")
	ErrAmplitudeRange = errors.New("waveform: |amplitude| exceeds 1.0")
	ErrBadParam       = errors.New("waveform: invalid envelope parameter")
)

// Waveform is a concrete, sampled pulse envelope. Samples are complex so a
// single waveform carries both quadratures (I = real, Q = imag); hardware
// mixes it onto the carrier defined by a frame. Samples are normalized:
// |sample| must not exceed 1.0 (full-scale output).
type Waveform struct {
	// Name is an optional label (e.g. "waveform_1" in the paper's
	// Listing 1-3). Names are used by IR printers and the exchange format.
	Name string
	// Samples holds the complex envelope, one entry per sample clock tick.
	Samples []complex128
}

// New validates and wraps an explicit sample array, mirroring the paper's
// qWaveform(waveform, amps) QPI primitive.
func New(name string, samples []complex128) (*Waveform, error) {
	w := &Waveform{Name: name, Samples: samples}
	if err := w.Check(); err != nil {
		return nil, err
	}
	w.Samples = make([]complex128, len(samples))
	copy(w.Samples, samples)
	return w, nil
}

// Check reports whether w is a waveform New would accept: at least one
// sample, and every sample a number within full scale. A waveform built any
// other way — a struct literal, a parsed def, a linked constant — is checked
// with it before it is played.
func (w *Waveform) Check() error {
	if len(w.Samples) == 0 {
		return ErrEmpty
	}
	for i, s := range w.Samples {
		// |s|² ≤ 1 is within full scale; anything else is measured exactly.
		if re, im := real(s), imag(s); re*re+im*im <= 1 {
			continue
		}
		if m := cmplx.Abs(s); math.IsNaN(m) || m > 1.0+1e-12 {
			return fmt.Errorf("%w: sample %d has magnitude %g", ErrAmplitudeRange, i, m)
		}
	}
	return nil
}

// Len returns the number of samples.
func (w *Waveform) Len() int { return len(w.Samples) }

// Clone returns a deep copy.
func (w *Waveform) Clone() *Waveform {
	cp := make([]complex128, len(w.Samples))
	copy(cp, w.Samples)
	return &Waveform{Name: w.Name, Samples: cp}
}

// Scale returns a copy with every sample multiplied by s. It returns an
// error if scaling pushes any sample out of full-scale range.
func (w *Waveform) Scale(s complex128) (*Waveform, error) {
	out := &Waveform{Name: w.Name, Samples: make([]complex128, len(w.Samples))}
	for i, v := range w.Samples {
		out.Samples[i] = s * v
	}
	if err := out.Check(); err != nil {
		return nil, err
	}
	return out, nil
}

// Concat returns the concatenation w ++ v.
func (w *Waveform) Concat(v *Waveform) *Waveform {
	out := make([]complex128, 0, len(w.Samples)+len(v.Samples))
	out = append(out, w.Samples...)
	out = append(out, v.Samples...)
	return &Waveform{Name: w.Name, Samples: out}
}

// PeakAmplitude returns max_i |s_i|.
func (w *Waveform) PeakAmplitude() float64 {
	var p float64
	for _, s := range w.Samples {
		if a := cmplx.Abs(s); a > p {
			p = a
		}
	}
	return p
}

// Area returns |Σ s_i|, proportional to the rotation angle a resonant pulse
// imparts (the "pulse area" in the rotating-wave approximation).
func (w *Waveform) Area() float64 {
	var sum complex128
	for _, s := range w.Samples {
		sum += s
	}
	return cmplx.Abs(sum)
}

// PadTo returns the waveform zero-padded at the end to granularity g (the
// hardware's minimum sample-count multiple). A granularity of 0 or 1 is a
// no-op.
func (w *Waveform) PadTo(g int) *Waveform {
	if g <= 1 || len(w.Samples)%g == 0 {
		return w.Clone()
	}
	n := ((len(w.Samples)/g)+1)*g - len(w.Samples)
	out := make([]complex128, len(w.Samples), len(w.Samples)+n)
	copy(out, w.Samples)
	out = append(out, make([]complex128, n)...)
	return &Waveform{Name: w.Name, Samples: out}
}
