// Package ptemplate implements parametric pulse templates with deferred
// binding: a circuit carrying symbolic parameters (amplitudes, angles,
// phases, detunings, durations) is compiled ONCE into a parametric QIR
// payload with unbound slots, and each point of a parameter sweep is then
// produced by a cheap Bind step — pure arithmetic on the lowered artifact,
// no recompilation. This is the compile-once/bind-millions workflow
// calibration and characterization loops (Rabi, Ramsey, DRAG tune-ups)
// need: the gate→pulse lowering cost is paid per template, not per point.
//
// Templates declare a closed parameter space up front: every parameter
// carries an inclusive [Min, Max] range, and template compilation proves —
// per slot — that the whole range lowers legally (rotation angles stay
// inside [−π, π], amplitudes stay inside full scale, delays stay
// non-negative). Bind then only needs range and finiteness checks, so a
// malformed point fails with ErrBadParam before it reaches a scheduler or
// device.
//
// A lowered program has one serialised form, concrete or not: its QIR
// exchange text (Compiled.Text), in which an unbound slot is written
// param("name", scale, offset). FromText is the inverse for a concrete
// program, on the far side of a machine boundary.
package ptemplate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"mqsspulse/internal/qpi"
)

// ErrBadParam reports a bind-time parameter violation: a missing value, a
// NaN or Inf, a value outside its declared range, or a value for an
// undeclared parameter. It fires before lowering or dispatch.
var ErrBadParam = errors.New("ptemplate: bad parameter value")

// Param declares one template parameter and its inclusive legal range.
// Template compilation proves the whole range lowers legally, so Bind can
// admit any in-range finite value without consulting the compiler.
type Param struct {
	// Name identifies the parameter; expressions reference it by name.
	Name string
	// Min is the smallest admissible value (inclusive).
	Min float64
	// Max is the largest admissible value (inclusive).
	Max float64
}

// Bindings assigns a concrete value to every template parameter for one
// sweep point.
type Bindings map[string]float64

// Template is a finished parametric circuit plus its declared parameter
// space, validated for range legality and ready to lower once per
// (device, calibration epoch).
type Template struct {
	circuit *qpi.Circuit
	params  []Param // sorted by name
	byName  map[string]Param
	// key is the circuit's key plus the declared parameter space.
	key string
}

// Circuit returns the finished parametric kernel.
func (t *Template) Circuit() *qpi.Circuit { return t.circuit }

// Params returns the declared parameters, sorted by name. The slice is the
// template's own: callers must not modify it.
func (t *Template) Params() []Param { return t.params }

// Key returns the template's lowering-cache key, rendered once by New: the
// circuit's Key and every declared range. Bound values never appear in it,
// so every sweep point of a template shares one.
func (t *Template) Key() string { return t.key }

// New validates a parametric circuit against its declared parameter space
// and returns a template. Every parameter the circuit references must be
// declared exactly once with a finite non-empty range, and every declared
// parameter must be referenced. Range legality is proven per slot:
//   - symbolic rx/ry angles must stay inside [−π, π] over the whole range —
//     where a concrete angle reduces to itself, so a bound payload is
//     byte-identical to a fresh compile at any nonzero angle but −π (at 0
//     it plays a zero-amplitude envelope, at −π the π envelope negated:
//     the same unitaries);
//   - symbolic delays must stay non-negative;
//   - symbolic waveform amplitudes must keep every sample inside full
//     scale (|amp| × envelope peak ≤ 1).
func New(c *qpi.Circuit, params ...Param) (*Template, error) {
	if c == nil {
		return nil, errors.New("ptemplate: nil circuit")
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ptemplate: circuit: %w", err)
	}
	if !c.Finished() {
		return nil, fmt.Errorf("ptemplate: circuit %q not finished", c.Name())
	}
	if !c.IsParametric() {
		return nil, fmt.Errorf("ptemplate: circuit %q has no parameter slots", c.Name())
	}
	byName := make(map[string]Param, len(params))
	for _, p := range params {
		if p.Name == "" {
			return nil, errors.New("ptemplate: parameter with empty name")
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("ptemplate: parameter %q declared twice", p.Name)
		}
		if math.IsNaN(p.Min) || math.IsInf(p.Min, 0) || math.IsNaN(p.Max) || math.IsInf(p.Max, 0) {
			return nil, fmt.Errorf("ptemplate: parameter %q has non-finite range [%g, %g]", p.Name, p.Min, p.Max)
		}
		if p.Min > p.Max {
			return nil, fmt.Errorf("ptemplate: parameter %q has empty range [%g, %g]", p.Name, p.Min, p.Max)
		}
		byName[p.Name] = p
	}
	used := c.ParamNames()
	for _, name := range used {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("ptemplate: circuit references undeclared parameter %q", name)
		}
	}
	if len(used) != len(byName) {
		usedSet := map[string]bool{}
		for _, name := range used {
			usedSet[name] = true
		}
		for name := range byName {
			if !usedSet[name] {
				return nil, fmt.Errorf("ptemplate: declared parameter %q is never referenced", name)
			}
		}
	}
	sorted := make([]Param, 0, len(byName))
	for _, name := range used { // used is already sorted
		sorted = append(sorted, byName[name])
	}
	t := &Template{circuit: c, params: sorted, byName: byName,
		key: string(appendParams([]byte(c.Key()), sorted))}
	if err := t.checkRangeLegality(); err != nil {
		return nil, err
	}
	return t, nil
}

// exprRange returns the inclusive interval an affine expression spans over
// its parameter's declared range.
func (t *Template) exprRange(e *qpi.ParamExpr) (lo, hi float64) {
	p := t.byName[e.Param]
	a, b := e.Eval(p.Min), e.Eval(p.Max)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// checkRangeLegality proves every slot lowers legally over its parameter's
// whole declared range, so Bind never has to consult the compiler.
func (t *Template) checkRangeLegality() error {
	ops := t.circuit.Ops()
	for i := range ops {
		op := &ops[i]
		if e := op.AngleExpr; e != nil && (op.Gate == "rx" || op.Gate == "ry") {
			lo, hi := t.exprRange(e)
			if lo < -math.Pi || hi > math.Pi {
				return fmt.Errorf(
					"ptemplate: %s angle spans [%g, %g] over parameter %q's range; symbolic rotation angles must stay in [−π, π]",
					op.Gate, lo, hi, e.Param)
			}
		}
		if e := op.DelayExpr; e != nil {
			lo, _ := t.exprRange(e)
			if lo < 0 {
				return fmt.Errorf(
					"ptemplate: delay on port %q reaches %g samples over parameter %q's range; delays must stay non-negative",
					op.Port, lo, e.Param)
			}
		}
		if e := op.AmpExpr; e != nil {
			w, ok := t.circuit.LookupWaveform(op.WaveformName)
			if !ok {
				return fmt.Errorf("ptemplate: waveform %q has an amplitude slot but no samples", op.WaveformName)
			}
			lo, hi := t.exprRange(e)
			maxAbs := math.Max(math.Abs(lo), math.Abs(hi))
			if peak := w.PeakAmplitude(); maxAbs*peak > 1.0+1e-12 {
				return fmt.Errorf(
					"ptemplate: waveform %q peaks at %g×%g = %g over parameter %q's range; scaled samples must stay within full scale",
					op.WaveformName, maxAbs, peak, maxAbs*peak, e.Param)
			}
		}
	}
	return nil
}

// validateBindings is the shared bind-time check used by Template and
// Compiled (which may have been rebuilt from text without a Template).
func validateBindings(params []Param, b Bindings) error {
	for _, p := range params {
		v, ok := b[p.Name]
		if !ok {
			return fmt.Errorf("%w: no value for parameter %q", ErrBadParam, p.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: parameter %q is %g", ErrBadParam, p.Name, v)
		}
		if v < p.Min || v > p.Max {
			return fmt.Errorf("%w: parameter %q = %g outside declared range [%g, %g]",
				ErrBadParam, p.Name, v, p.Min, p.Max)
		}
	}
	if len(b) != len(params) {
		declared := map[string]bool{}
		for _, p := range params {
			declared[p.Name] = true
		}
		extra := make([]string, 0, 1)
		for name := range b {
			if !declared[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("%w: bindings name undeclared parameters %v", ErrBadParam, extra)
	}
	return nil
}

// appendParams renders a declared parameter space onto a key. Strings are
// quoted and floats rendered as exact bits, as in qpi.Circuit.Key.
func appendParams(b []byte, params []Param) []byte {
	for _, p := range params {
		b = append(b, '|', 'p')
		b = append(strconv.AppendQuote(b, p.Name), ':')
		b = append(strconv.AppendUint(b, math.Float64bits(p.Min), 16), ':')
		b = append(strconv.AppendUint(b, math.Float64bits(p.Max), 16), ':')
	}
	return b
}
